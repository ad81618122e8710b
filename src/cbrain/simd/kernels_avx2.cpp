// AVX2 backend. The build applies -mavx2 to this file only (see
// src/CMakeLists.txt); without it __AVX2__ is unset and this TU exports
// nullptr. Dispatch additionally gates on a runtime CPUID check, so a
// binary built here still runs on SSE2-only hosts.
//
// Like the SSE2 backend, the dot kernels avoid _mm256_madd_epi16 — its
// pairwise i32 sum wraps when both pair products are (-32768)² — and
// instead widen exact 32-bit products (mullo/mulhi) to 64-bit lanes.
// Integer accumulation in any lane order is exact, so results are
// bit-identical to the scalar reference for every input. axpy uses
// mul+add (never FMA: -mavx2 does not enable it, and a fused rounding
// would diverge from the scalar path).
#include "cbrain/simd/backend_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace cbrain::simd::detail {
namespace {

using std::int16_t;
using std::int64_t;

// Sign-extends the eight i32 lanes of `v` into two 4×i64 accumulators.
inline void accumulate_i32x8(__m256i v, __m256i& acc0, __m256i& acc1) {
  acc0 = _mm256_add_epi64(
      acc0, _mm256_cvtepi32_epi64(_mm256_castsi256_si128(v)));
  acc1 = _mm256_add_epi64(
      acc1, _mm256_cvtepi32_epi64(_mm256_extracti128_si256(v, 1)));
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
    accumulate_i32x8(_mm256_unpacklo_epi16(lo, hi), acc0, acc1);
    accumulate_i32x8(_mm256_unpackhi_epi16(lo, hi), acc0, acc1);
  }
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_add_epi64(acc0, acc1));
  int64_t acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i)
    acc += static_cast<int64_t>(data[i]) * static_cast<int64_t>(weights[i]);
  return acc;
}

// No-wrap fast path (see simd.hpp): with the caller guaranteeing that no
// pmaddwd pair sum reaches +2^31, madd's pairwise i32 result is exact and
// the expensive sign-extending widen (unpack/cvt, all port-5 shuffles)
// collapses to an unsigned widen: xor the i32 lanes with 0x80000000 —
// which adds 2^31 mod 2^32, mapping signed lanes to their biased unsigned
// bit pattern — then mask/shift the 64-bit halves apart and subtract the
// accumulated bias once at the end. Integer sums in any order are exact,
// so the result is bit-identical to the scalar reference.
int64_t dot_s16_nw(const int16_t* data, const int16_t* weights, int64_t n) {
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  __m256i acc_lo = _mm256_setzero_si256();
  __m256i acc_hi = _mm256_setzero_si256();
  int64_t i = 0;
  int64_t groups = 0;
  for (; i + 16 <= n; i += 16, ++groups) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(weights + i));
    const __m256i u = _mm256_xor_si256(_mm256_madd_epi16(d, w), sign);
    acc_lo = _mm256_add_epi64(acc_lo, _mm256_and_si256(u, lo32));
    acc_hi = _mm256_add_epi64(acc_hi, _mm256_srli_epi64(u, 32));
  }
  alignas(32) int64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                     _mm256_add_epi64(acc_lo, acc_hi));
  // 8 biased lanes per group, 2^31 bias each.
  int64_t acc = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]) -
                groups * (int64_t{8} << 31);
  for (; i < n; ++i)
    acc += static_cast<int64_t>(data[i]) * static_cast<int64_t>(weights[i]);
  return acc;
}

// Generic (wrap-safe) multi-RHS tile: element-by-element over the exact
// widening dot. It serves the cycle tier's value pass (fault upsets can
// put -32768 in any weight word) and functional-tier weights that fail
// the no-wrap scan.
void dot_s16_mrhs(const int16_t* data, int64_t data_stride, int64_t cols,
                  const int16_t* weights, int64_t row_stride, int64_t rows,
                  int64_t n, int64_t* out, int64_t out_stride) {
  for (int64_t l = 0; l < rows; ++l)
    for (int64_t c = 0; c < cols; ++c)
      out[l * out_stride + c] =
          dot_s16(data + c * data_stride, weights + l * row_stride, n);
}

// Register-blocked 2 rows × 2 columns no-wrap tile: each weight vector is
// loaded once and madd'ed against both data columns (and vice versa), so
// the L2/DRAM-resident weight stream is touched half as often per MAC as
// the 1-RHS kernel — the win that makes batched FC/conv GEMMs cheaper
// than request-at-a-time ones. Eight i64 accumulator registers (2x2
// products × lo/hi halves) plus two data, two weight and two constant
// registers fit the 16-register AVX2 file. Every lane sum is exact, so
// the result is bit-identical to dot_s16_nw per element.
inline void mrhs_nw_2x2(const int16_t* d0, const int16_t* d1,
                        const int16_t* w0, const int16_t* w1, int64_t n,
                        int64_t* o00, int64_t* o01, int64_t* o10,
                        int64_t* o11) {
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  const __m256i lo32 = _mm256_set1_epi64x(0xFFFFFFFFll);
  __m256i a00l = _mm256_setzero_si256(), a00h = _mm256_setzero_si256();
  __m256i a01l = _mm256_setzero_si256(), a01h = _mm256_setzero_si256();
  __m256i a10l = _mm256_setzero_si256(), a10h = _mm256_setzero_si256();
  __m256i a11l = _mm256_setzero_si256(), a11h = _mm256_setzero_si256();
  int64_t i = 0;
  int64_t groups = 0;
  for (; i + 16 <= n; i += 16, ++groups) {
    const __m256i vw0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w0 + i));
    const __m256i vw1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w1 + i));
    const __m256i vd0 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d0 + i));
    const __m256i vd1 =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(d1 + i));
    __m256i u = _mm256_xor_si256(_mm256_madd_epi16(vd0, vw0), sign);
    a00l = _mm256_add_epi64(a00l, _mm256_and_si256(u, lo32));
    a00h = _mm256_add_epi64(a00h, _mm256_srli_epi64(u, 32));
    u = _mm256_xor_si256(_mm256_madd_epi16(vd1, vw0), sign);
    a01l = _mm256_add_epi64(a01l, _mm256_and_si256(u, lo32));
    a01h = _mm256_add_epi64(a01h, _mm256_srli_epi64(u, 32));
    u = _mm256_xor_si256(_mm256_madd_epi16(vd0, vw1), sign);
    a10l = _mm256_add_epi64(a10l, _mm256_and_si256(u, lo32));
    a10h = _mm256_add_epi64(a10h, _mm256_srli_epi64(u, 32));
    u = _mm256_xor_si256(_mm256_madd_epi16(vd1, vw1), sign);
    a11l = _mm256_add_epi64(a11l, _mm256_and_si256(u, lo32));
    a11h = _mm256_add_epi64(a11h, _mm256_srli_epi64(u, 32));
  }
  const int64_t bias = groups * (int64_t{8} << 31);
  alignas(32) int64_t lanes[4];
  auto reduce = [&lanes](__m256i lo, __m256i hi) {
    _mm256_store_si256(reinterpret_cast<__m256i*>(lanes),
                       _mm256_add_epi64(lo, hi));
    return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  };
  int64_t r00 = reduce(a00l, a00h) - bias;
  int64_t r01 = reduce(a01l, a01h) - bias;
  int64_t r10 = reduce(a10l, a10h) - bias;
  int64_t r11 = reduce(a11l, a11h) - bias;
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

void dot_s16_mrhs_nw(const int16_t* data, int64_t data_stride, int64_t cols,
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
      mrhs_nw_2x2(data + c * data_stride, data + (c + 1) * data_stride, w0,
                  w1, n, out0 + c, out0 + c + 1, out1 + c, out1 + c + 1);
    for (; c < cols; ++c) {
      const int16_t* d = data + c * data_stride;
      out0[c] = dot_s16_nw(d, w0, n);
      out1[c] = dot_s16_nw(d, w1, n);
    }
  }
  if (l < rows) {
    const int16_t* w0 = weights + l * row_stride;
    int64_t* out0 = out + l * out_stride;
    for (int64_t c = 0; c < cols; ++c)
      out0[c] = dot_s16_nw(data + c * data_stride, w0, n);
  }
}

// --- deep-window path -------------------------------------------------------
// Under the dot_s16_mrhs_dw contract (simd.hpp) pmaddwd results for up to
// kDeepGroups consecutive groups can be summed with plain 32-bit adds
// without wrapping, so the per-group widening chain of the _nw kernels
// (xor + and + shift + two i64 adds — the vector-ALU bottleneck) is paid
// once per *window* instead of once per group: the steady state is one
// load + one madd + one add_epi32 per 16 MACs. Must match
// simd::kDeepGroups (16 groups × 16 int16 elements).
constexpr int64_t kDeepElems = 16 * 16;

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

void add_sat_s16(const int16_t* a, const int16_t* b, int16_t* out,
                 int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_adds_epi16(va, vb));
  }
  for (; i < n; ++i) {
    const int32_t s = static_cast<int32_t>(a[i]) + static_cast<int32_t>(b[i]);
    out[i] = static_cast<int16_t>(s > 32767 ? 32767 : (s < -32768 ? -32768
                                                                  : s));
  }
}

void relu_s16(const int16_t* x, int16_t* out, int64_t n) {
  const __m256i zero = _mm256_setzero_si256();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_max_epi16(v, zero));
  }
  for (; i < n; ++i) out[i] = x[i] < 0 ? int16_t{0} : x[i];
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

constexpr KernelTable kTable = {
    dot_s16,
    dot_s16_mrhs, dot_s16_mrhs_nw, dot_s16_mrhs_dw,
    add_sat_s16,  relu_s16,        max_s16,         axpy_f32,
};

}  // namespace

const KernelTable* avx2_table() { return &kTable; }

}  // namespace cbrain::simd::detail

#else  // !__AVX2__

namespace cbrain::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace cbrain::simd::detail

#endif
