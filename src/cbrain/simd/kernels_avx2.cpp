// AVX2 backend. The build applies -mavx2 to this file only (see
// src/CMakeLists.txt); without it __AVX2__ is unset and this TU exports
// nullptr. Dispatch additionally gates on a runtime CPUID check, so a
// binary built here still runs (on the scalar backend) on pre-AVX2 hosts.
//
// The exact dot kernel avoids _mm256_madd_epi16 — its pairwise i32 sum
// wraps when both pair products are (-32768)² — and instead widens exact
// 32-bit products (mullo/mulhi) to 64-bit lanes; only the deep-window,
// depthwise and conv-tile paths, whose weight contracts rule the wrap
// out, use madd. Integer accumulation in any lane order is exact, so
// results are bit-identical to the scalar reference for every input the
// contracts admit. axpy uses mul+add (never FMA: -mavx2 does not enable
// it, and a fused rounding would diverge from the scalar path).
#include "cbrain/simd/backend_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace cbrain::simd::detail {
namespace {

using std::int16_t;
using std::int32_t;
using std::int64_t;
using std::uint16_t;
using std::uint32_t;

// Widens the eight i32 lanes of `a` into the 4×i64 accumulator `s`.
inline __m256i flush_i32(__m256i s, __m256i a) {
  s = _mm256_add_epi64(s, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(a)));
  return _mm256_add_epi64(
      s, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(a, 1)));
}

inline int64_t reduce_i64(__m256i s) {
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), s);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

int64_t dot_s16(const int16_t* data, const int16_t* weights, int64_t n) {
  __m256i acc0 = _mm256_setzero_si256();
  __m256i acc1 = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(weights + i));
    const __m256i lo = _mm256_mullo_epi16(d, w);
    const __m256i hi = _mm256_mulhi_epi16(d, w);
    // unpack interleaves within 128-bit halves; which product lands in
    // which lane is irrelevant to an exact sum.
    acc0 = flush_i32(acc0, _mm256_unpacklo_epi16(lo, hi));
    acc1 = flush_i32(acc1, _mm256_unpackhi_epi16(lo, hi));
  }
  int64_t acc = reduce_i64(_mm256_add_epi64(acc0, acc1));
  for (; i < n; ++i)
    acc += static_cast<int64_t>(data[i]) * static_cast<int64_t>(weights[i]);
  return acc;
}

// Generic (wrap-safe) multi-RHS tile: element-by-element over the exact
// widening dot. It serves cycle-tier FC, cycle-tier conv tiles whose
// weights (fault upsets can put -32768 in any weight word) fail the
// deep-window check, and functional-tier weights that fail it.
void dot_s16_mrhs(const int16_t* data, int64_t data_stride, int64_t cols,
                  const int16_t* weights, int64_t row_stride, int64_t rows,
                  int64_t n, int64_t* out, int64_t out_stride) {
  for (int64_t l = 0; l < rows; ++l)
    for (int64_t c = 0; c < cols; ++c)
      out[l * out_stride + c] =
          dot_s16(data + c * data_stride, weights + l * row_stride, n);
}

// --- deep-window path -------------------------------------------------------
// Under the dot_s16_mrhs_dw contract (simd.hpp) pmaddwd results for up to
// kDeepGroups consecutive groups can be summed with plain 32-bit adds
// without wrapping, so the per-group i32→i64 widening chain (the
// vector-ALU bottleneck of a per-group madd kernel) is paid once per
// *window* instead of once per group: the steady state is one
// load + one madd + one add_epi32 per 16 MACs. Must match
// simd::kDeepGroups (16 groups × 16 int16 elements).
constexpr int64_t kDeepElems = 16 * 16;

int64_t dot_s16_dw(const int16_t* data, const int16_t* weights, int64_t n) {
  __m256i s = _mm256_setzero_si256();
  int64_t i = 0;
  const int64_t vend = n & ~int64_t{15};
  while (i < vend) {
    const int64_t lim = i + kDeepElems < vend ? i + kDeepElems : vend;
    __m256i a = _mm256_setzero_si256();
    for (; i < lim; i += 16) {
      const __m256i d =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
      const __m256i w =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(weights + i));
      a = _mm256_add_epi32(a, _mm256_madd_epi16(d, w));
    }
    s = flush_i32(s, a);
  }
  int64_t acc = reduce_i64(s);
  for (; i < n; ++i)
    acc += static_cast<int64_t>(data[i]) * static_cast<int64_t>(weights[i]);
  return acc;
}

// 2×2 deep tile: the register budget is four i32 window accumulators,
// four i64 deep accumulators, two weight and two data vectors — 12 of the
// 16 ymm registers, leaving headroom for the madd temporaries. Weight
// vectors stream through registers once per column pair (the mrhs
// amortization) and the inner loop runs at pmaddwd throughput.
inline void mrhs_dw_2x2(const int16_t* d0, const int16_t* d1,
                        const int16_t* w0, const int16_t* w1, int64_t n,
                        int64_t* o00, int64_t* o01, int64_t* o10,
                        int64_t* o11) {
  __m256i s00 = _mm256_setzero_si256(), s01 = _mm256_setzero_si256();
  __m256i s10 = _mm256_setzero_si256(), s11 = _mm256_setzero_si256();
  int64_t i = 0;
  const int64_t vend = n & ~int64_t{15};
  while (i < vend) {
    const int64_t lim = i + kDeepElems < vend ? i + kDeepElems : vend;
    __m256i a00 = _mm256_setzero_si256(), a01 = _mm256_setzero_si256();
    __m256i a10 = _mm256_setzero_si256(), a11 = _mm256_setzero_si256();
    for (; i < lim; i += 16) {
      const __m256i vw0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w0 + i));
      const __m256i vw1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w1 + i));
      const __m256i vd0 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d0 + i));
      const __m256i vd1 =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d1 + i));
      a00 = _mm256_add_epi32(a00, _mm256_madd_epi16(vd0, vw0));
      a01 = _mm256_add_epi32(a01, _mm256_madd_epi16(vd1, vw0));
      a10 = _mm256_add_epi32(a10, _mm256_madd_epi16(vd0, vw1));
      a11 = _mm256_add_epi32(a11, _mm256_madd_epi16(vd1, vw1));
    }
    s00 = flush_i32(s00, a00);
    s01 = flush_i32(s01, a01);
    s10 = flush_i32(s10, a10);
    s11 = flush_i32(s11, a11);
  }
  int64_t r00 = reduce_i64(s00);
  int64_t r01 = reduce_i64(s01);
  int64_t r10 = reduce_i64(s10);
  int64_t r11 = reduce_i64(s11);
  for (; i < n; ++i) {
    r00 += static_cast<int64_t>(d0[i]) * static_cast<int64_t>(w0[i]);
    r01 += static_cast<int64_t>(d1[i]) * static_cast<int64_t>(w0[i]);
    r10 += static_cast<int64_t>(d0[i]) * static_cast<int64_t>(w1[i]);
    r11 += static_cast<int64_t>(d1[i]) * static_cast<int64_t>(w1[i]);
  }
  *o00 = r00;
  *o01 = r01;
  *o10 = r10;
  *o11 = r11;
}

void dot_s16_mrhs_dw(const int16_t* data, int64_t data_stride, int64_t cols,
                     const int16_t* weights, int64_t row_stride, int64_t rows,
                     int64_t n, int64_t* out, int64_t out_stride) {
  int64_t l = 0;
  for (; l + 2 <= rows; l += 2) {
    const int16_t* w0 = weights + l * row_stride;
    const int16_t* w1 = w0 + row_stride;
    int64_t* out0 = out + l * out_stride;
    int64_t* out1 = out0 + out_stride;
    int64_t c = 0;
    for (; c + 2 <= cols; c += 2)
      mrhs_dw_2x2(data + c * data_stride, data + (c + 1) * data_stride, w0,
                  w1, n, out0 + c, out0 + c + 1, out1 + c, out1 + c + 1);
    for (; c < cols; ++c) {
      const int16_t* d = data + c * data_stride;
      out0[c] = dot_s16_dw(d, w0, n);
      out1[c] = dot_s16_dw(d, w1, n);
    }
  }
  if (l < rows) {
    const int16_t* w0 = weights + l * row_stride;
    int64_t* out0 = out + l * out_stride;
    for (int64_t c = 0; c < cols; ++c)
      out0[c] = dot_s16_dw(data + c * data_stride, w0, n);
  }
}

// --- depthwise ---------------------------------------------------------------
// Blocks of 16 outputs of one row (8 for rows of 8..15 outputs), one i32
// lane each. A tap pair (kx, kx+1) is one madd: its two products land
// in the same lane, and the filter-sum contract (sum |w| <= 65535 per
// filter) keeps the whole k*k window sum, pairs included, inside int32.
// Stride 2 needs no shuffle: taps kx and kx+1 of output j are the
// adjacent elements 2j+kx and 2j+kx+1, so one 16-element load holds the
// pairs of eight outputs. Stride 1 interleaves two loads offset by one.
// k is odd (3 or 5, unrolled at compile time), so the last tap pairs with
// its left neighbour at weight 0 and no load reaches past a window. A
// row's blocks start at 0, W, 2W, ...; a ragged row ends with a block at
// cols - W that recomputes some outputs with identical values.
constexpr int64_t kDwMinCols = 8;  // simd::kDwMinCols

// Pair p covers taps (2p, 2p+1), the last one (k-2, k-1).
template <int64_t kK>
constexpr int64_t pair_kx(int64_t p) {
  return 2 * p + 1 < kK ? 2 * p : kK - 2;
}

// A promoted (Q16.16) i64 bias, |bias| < 2^31, split for round_8 into
// floor(bias / 256) and bias mod 256, each broadcast to the i32 lanes.
struct Bias8 {
  __m256i hi, lo;
};

inline Bias8 split_bias(int64_t bias) {
  return {_mm256_set1_epi32(static_cast<int32_t>(bias >> 8)),
          _mm256_set1_epi32(static_cast<int32_t>(bias & 255))};
}

// Eight i32 sums -> the rounded i32 quotients of (sum + bias) / 256, lanes
// in place, all in i32: with v = sum + bias = 256 h + l, 0 <= l < 256,
// round half away from zero is h + [l >= 128 + [h < 0]] (v < 0 exactly
// when h < 0). |h| < 2^24, so nothing wraps; packs_epi32 then saturates
// the quotients to int16 exactly like saturate_to_i16.
inline __m256i round_8(__m256i acc, const Bias8& bias) {
  const __m256i byte = _mm256_set1_epi32(255);
  __m256i h = _mm256_add_epi32(_mm256_srai_epi32(acc, 8), bias.hi);
  __m256i l = _mm256_add_epi32(_mm256_and_si256(acc, byte), bias.lo);
  h = _mm256_add_epi32(h, _mm256_srli_epi32(l, 8));  // l < 512: the carry
  l = _mm256_and_si256(l, byte);
  // l > 127 + [h < 0]; the compares give -1 for true.
  const __m256i neg = _mm256_cmpgt_epi32(_mm256_setzero_si256(), h);
  const __m256i up = _mm256_cmpgt_epi32(
      l, _mm256_sub_epi32(_mm256_set1_epi32(127), neg));
  return _mm256_sub_epi32(h, up);
}

// One tap pair's products for 8 outputs starting at `s` (stride 1: the
// pairs of s[j], s[j+1]; stride 2: s[2j], s[2j+1]).
template <int64_t kStride>
inline __m256i pairs_8(const int16_t* s) {
  if constexpr (kStride == 2) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
  } else {
    const __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(s));
    const __m128i b =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(s + 1));
    return _mm256_set_m128i(_mm_unpackhi_epi16(a, b),
                            _mm_unpacklo_epi16(a, b));
  }
}

// 16 outputs from `win` (the first output's window) into out[0..16);
// w[ky * pairs + p] holds pair p of filter row ky in every i32 lane.
template <int64_t kStride, int64_t kK>
inline void dw_block16(const int16_t* win, int64_t in_stride,
                       const __m256i* w, const Bias8& bias, bool relu,
                       int16_t* out) {
  constexpr int64_t kPairs = (kK + 1) / 2;
  __m256i a0 = _mm256_setzero_si256(), a1 = _mm256_setzero_si256();
  for (int64_t ky = 0; ky < kK; ++ky) {
    const int16_t* src = win + ky * in_stride;
    for (int64_t p = 0; p < kPairs; ++p) {
      const int16_t* s = src + pair_kx<kK>(p);
      const __m256i wp = w[ky * kPairs + p];
      if constexpr (kStride == 2) {
        // a0: outputs 0..7, a1: outputs 8..15.
        a0 = _mm256_add_epi32(a0, _mm256_madd_epi16(pairs_8<2>(s), wp));
        a1 = _mm256_add_epi32(a1, _mm256_madd_epi16(pairs_8<2>(s + 16), wp));
      } else {
        // a0: outputs 0-3 and 8-11, a1: 4-7 and 12-15 (unpack works per
        // 128-bit half).
        const __m256i x0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s));
        const __m256i x1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(s + 1));
        a0 = _mm256_add_epi32(
            a0, _mm256_madd_epi16(_mm256_unpacklo_epi16(x0, x1), wp));
        a1 = _mm256_add_epi32(
            a1, _mm256_madd_epi16(_mm256_unpackhi_epi16(x0, x1), wp));
      }
    }
  }
  // packs_epi32 interleaves per 128-bit half: for stride 1 that restores
  // output order, for stride 2 a qword permute does.
  __m256i v = _mm256_packs_epi32(round_8(a0, bias), round_8(a1, bias));
  if constexpr (kStride == 2)
    v = _mm256_permute4x64_epi64(v, _MM_SHUFFLE(3, 1, 2, 0));
  if (relu) v = _mm256_max_epi16(v, _mm256_setzero_si256());
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), v);
}

// 8 outputs, for rows of 8..15.
template <int64_t kStride, int64_t kK>
inline void dw_block8(const int16_t* win, int64_t in_stride,
                      const __m256i* w, const Bias8& bias, bool relu,
                      int16_t* out) {
  constexpr int64_t kPairs = (kK + 1) / 2;
  __m256i a = _mm256_setzero_si256();
  for (int64_t ky = 0; ky < kK; ++ky)
    for (int64_t p = 0; p < kPairs; ++p)
      a = _mm256_add_epi32(
          a, _mm256_madd_epi16(
                 pairs_8<kStride>(win + ky * in_stride + pair_kx<kK>(p)),
                 w[ky * kPairs + p]));
  const __m256i q = round_8(a, bias);
  __m128i v = _mm_packs_epi32(_mm256_castsi256_si128(q),
                              _mm256_extracti128_si256(q, 1));
  if (relu) v = _mm_max_epi16(v, _mm_setzero_si128());
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), v);
}

template <int64_t kStride, int64_t kK>
void dw_conv_blocks(const int16_t* in, int64_t in_stride,
                    const int16_t* filter, int64_t rows, int64_t cols,
                    int64_t bias, bool relu, int16_t* out,
                    int64_t out_stride) {
  constexpr int64_t kPairs = (kK + 1) / 2;
  __m256i w[kK * kPairs];
  for (int64_t ky = 0; ky < kK; ++ky)
    for (int64_t p = 0; p < kPairs; ++p) {
      // The last pair's first tap was counted by the pair before it.
      const int16_t* t = filter + ky * kK + pair_kx<kK>(p);
      const uint16_t lo = 2 * p + 1 < kK ? static_cast<uint16_t>(t[0]) : 0;
      const uint16_t hi = static_cast<uint16_t>(t[1]);
      w[ky * kPairs + p] = _mm256_set1_epi32(static_cast<int32_t>(
          static_cast<uint32_t>(lo) | (static_cast<uint32_t>(hi) << 16)));
    }
  const Bias8 vbias = split_bias(bias);
  const int64_t lanes = cols >= 2 * kDwMinCols ? 2 * kDwMinCols : kDwMinCols;
  for (int64_t r = 0; r < rows; ++r) {
    const int16_t* in_row = in + r * kStride * in_stride;
    int16_t* out_row = out + r * out_stride;
    for (int64_t c = 0;;
         c = c + 2 * lanes <= cols ? c + lanes : cols - lanes) {
      if (lanes == 2 * kDwMinCols)
        dw_block16<kStride, kK>(in_row + c * kStride, in_stride, w, vbias,
                                relu, out_row + c);
      else
        dw_block8<kStride, kK>(in_row + c * kStride, in_stride, w, vbias,
                               relu, out_row + c);
      if (c + lanes >= cols) break;
    }
  }
}

void dw_conv_s16(const int16_t* in, int64_t in_stride, int64_t stride,
                 const int16_t* w, int64_t k, int64_t rows, int64_t cols,
                 int64_t bias, bool relu, int16_t* out, int64_t out_stride) {
  using Fn = void (*)(const int16_t*, int64_t, const int16_t*, int64_t,
                      int64_t, int64_t, bool, int16_t*, int64_t);
  Fn fn = nullptr;
  if (cols >= kDwMinCols) {
    if (stride == 1 && k == 3) fn = dw_conv_blocks<1, 3>;
    if (stride == 1 && k == 5) fn = dw_conv_blocks<1, 5>;
    if (stride == 2 && k == 3) fn = dw_conv_blocks<2, 3>;
    if (stride == 2 && k == 5) fn = dw_conv_blocks<2, 5>;
  }
  if (fn == nullptr)
    dw_conv_rows(in, in_stride, stride, w, k, rows, cols, bias, relu, out,
                 out_stride);
  else
    fn(in, in_stride, w, rows, cols, bias, relu, out, out_stride);
}

// --- conv tile ---------------------------------------------------------------
// Pixels across the lanes: a register tile of kTileOuts output channels ×
// kTilePixels flat pixels, two 8-lane i32 accumulators per channel (12 of
// the 16 ymm registers; two data vectors and one weight broadcast fill
// the rest). For each (channel pair, tap) the kernel loads the 16 staged
// pixels — each an (even, odd) channel pair of int16 — once, and every
// output channel adds one madd per pixel vector against its broadcast
// weight pair. The filter-sum contract (simd.hpp) keeps each lane's whole
// sum, and every partial sum, inside int32, and rules out the madd pair
// wrap; round_8 adds the bias and rounds in i32 too.
inline __m256i weight_pair(const int16_t* w) {
  int32_t v;
  std::memcpy(&v, w, sizeof v);
  return _mm256_set1_epi32(v);
}

void conv_tile_s16(const ConvTile& a) {
  alignas(32) int16_t vals[kTileOuts * kTilePixels];
  for (int64_t q = a.q0; q < a.q1; q += kTilePixels) {
    __m256i acc[2 * kTileOuts];
#pragma GCC unroll 12
    for (int64_t i = 0; i < 2 * kTileOuts; ++i)
      acc[i] = _mm256_setzero_si256();
    const int16_t* wp = a.w;
    for (int64_t p = 0; p < a.pairs; ++p) {
      const int16_t* src = a.in + 2 * (p * a.pair_stride + q);
      for (int64_t t = 0; t < a.ntaps; ++t, wp += 2 * kTileOuts) {
        const int16_t* px = src + 2 * a.taps[t];
        const __m256i x0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(px));
        const __m256i x1 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(px + 16));
#pragma GCC unroll 6
        for (int64_t o = 0; o < kTileOuts; ++o) {
          const __m256i w = weight_pair(wp + 2 * o);
          acc[2 * o] = _mm256_add_epi32(acc[2 * o], _mm256_madd_epi16(x0, w));
          acc[2 * o + 1] =
              _mm256_add_epi32(acc[2 * o + 1], _mm256_madd_epi16(x1, w));
        }
      }
    }
    // A full tile on one contiguous output run stores straight from the
    // registers; any other goes through store_tile.
    const int64_t n = a.q1 - q < kTilePixels ? a.q1 - q : kTilePixels;
    const int64_t run = n == kTilePixels ? tile_run(a, q, n) : -1;
    // Unrolled over kTileOuts so the accumulators stay in registers.
#pragma GCC unroll 6
    for (int64_t o = 0; o < kTileOuts; ++o) {
      if (o == a.outs) break;
      const Bias8 bias = split_bias(a.bias[o]);
      // packs_epi32 interleaves per 128-bit half; the qword permute
      // restores pixel order.
      __m256i v = _mm256_permute4x64_epi64(
          _mm256_packs_epi32(round_8(acc[2 * o], bias),
                             round_8(acc[2 * o + 1], bias)),
          _MM_SHUFFLE(3, 1, 2, 0));
      if (a.relu) v = _mm256_max_epi16(v, _mm256_setzero_si256());
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(run >= 0
                                         ? a.out + o * a.out_plane + run
                                         : vals + o * kTilePixels),
          v);
    }
    if (run < 0) store_tile(a, q, n, vals);
  }
}

void max_s16(const int16_t* x, int16_t* inout, int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i vx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    const __m256i vio =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(inout + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(inout + i),
                        _mm256_max_epi16(vx, vio));
  }
  for (; i < n; ++i)
    if (x[i] > inout[i]) inout[i] = x[i];
}

void axpy_f32(float a, const float* x, float* y, int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    const __m256 vx = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

constexpr KernelTable kTable = {dot_s16_mrhs,  dot_s16_mrhs_dw, dw_conv_s16,
                                conv_tile_s16, max_s16,         axpy_f32};

}  // namespace

const KernelTable* avx2_table() { return &kTable; }

}  // namespace cbrain::simd::detail

#else  // !__AVX2__

namespace cbrain::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace cbrain::simd::detail

#endif
