// AVX2 backend. The build applies -mavx2 to this file only (see
// src/CMakeLists.txt); without it __AVX2__ is unset and this TU exports
// nullptr. Dispatch additionally gates on a runtime CPUID check, so a
// binary built here still runs (on the scalar backend) on pre-AVX2 hosts.
//
// The exact dot kernel avoids _mm256_madd_epi16 — its pairwise i32 sum
// wraps when both pair products are (-32768)² — and instead widens exact
// 32-bit products (mullo/mulhi) to 64-bit lanes; only the deep-window
// path, whose weight contract rules the wrap out, uses madd. Integer
// accumulation in any lane order is exact, so results are bit-identical
// to the scalar reference for every input the contracts admit. axpy uses
// mul+add (never FMA: -mavx2 does not enable it, and a fused rounding
// would diverge from the scalar path).
#include "cbrain/simd/backend_impl.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace cbrain::simd::detail {
namespace {

using std::int16_t;
using std::int64_t;

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

constexpr KernelTable kTable = {dot_s16_mrhs, dot_s16_mrhs_dw, max_s16,
                                axpy_f32};

}  // namespace

const KernelTable* avx2_table() { return &kTable; }

}  // namespace cbrain::simd::detail

#else  // !__AVX2__

namespace cbrain::simd::detail {
const KernelTable* avx2_table() { return nullptr; }
}  // namespace cbrain::simd::detail

#endif
