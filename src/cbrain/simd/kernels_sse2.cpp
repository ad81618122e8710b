// SSE2 backend. Compiled into the table only when the build targets x86
// with SSE2 available (__SSE2__); otherwise this TU exports nullptr and
// dispatch never offers the backend.
//
// The dot kernels deliberately avoid _mm_madd_epi16: its pairwise i32 sum
// wraps for the one input it cannot represent (both pair products equal
// (-32768)² = 2^30, summing to 2^31), which would break bit-exactness
// against the scalar reference on exactly the extreme values the tests
// fuzz. Instead each product is materialized exactly in 32 bits
// (mullo/mulhi), sign-extended to 64 and accumulated — exact for every
// input, in any lane order.
#include "cbrain/simd/backend_impl.hpp"

#if defined(__SSE2__)

#include <emmintrin.h>

namespace cbrain::simd::detail {
namespace {

using std::int16_t;
using std::int64_t;

// Sign-extends the four i32 lanes of `v` and adds them into acc0/acc1
// (two i64 lanes each).
inline void accumulate_i32x4(__m128i v, __m128i& acc0, __m128i& acc1) {
  const __m128i sign = _mm_srai_epi32(v, 31);
  acc0 = _mm_add_epi64(acc0, _mm_unpacklo_epi32(v, sign));
  acc1 = _mm_add_epi64(acc1, _mm_unpackhi_epi32(v, sign));
}

int64_t dot_s16(const int16_t* data, const int16_t* weights, int64_t n) {
  __m128i acc0 = _mm_setzero_si128();
  __m128i acc1 = _mm_setzero_si128();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i w =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(weights + i));
    const __m128i lo = _mm_mullo_epi16(d, w);
    const __m128i hi = _mm_mulhi_epi16(d, w);
    accumulate_i32x4(_mm_unpacklo_epi16(lo, hi), acc0, acc1);
    accumulate_i32x4(_mm_unpackhi_epi16(lo, hi), acc0, acc1);
  }
  alignas(16) int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                  _mm_add_epi64(acc0, acc1));
  int64_t acc = lanes[0] + lanes[1];
  for (; i < n; ++i)
    acc += static_cast<int64_t>(data[i]) * static_cast<int64_t>(weights[i]);
  return acc;
}

// No-wrap fast path (see simd.hpp / the AVX2 twin): the caller rules out
// the one pmaddwd-wrapping input, so the pairwise i32 sums are exact and
// widen via xor-bias to unsigned + mask/shift instead of sign-extending
// unpacks; the accumulated 2^31-per-lane bias comes off once at the end.
int64_t dot_s16_nw(const int16_t* data, const int16_t* weights, int64_t n) {
  const __m128i sign = _mm_set1_epi32(INT32_MIN);
  const __m128i lo32 = _mm_set1_epi64x(0xFFFFFFFFll);
  __m128i acc_lo = _mm_setzero_si128();
  __m128i acc_hi = _mm_setzero_si128();
  int64_t i = 0;
  int64_t groups = 0;
  for (; i + 8 <= n; i += 8, ++groups) {
    const __m128i d =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    const __m128i w =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(weights + i));
    const __m128i u = _mm_xor_si128(_mm_madd_epi16(d, w), sign);
    acc_lo = _mm_add_epi64(acc_lo, _mm_and_si128(u, lo32));
    acc_hi = _mm_add_epi64(acc_hi, _mm_srli_epi64(u, 32));
  }
  alignas(16) int64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes),
                  _mm_add_epi64(acc_lo, acc_hi));
  // 4 biased lanes per group, 2^31 bias each.
  int64_t acc = lanes[0] + lanes[1] - groups * (int64_t{4} << 31);
  for (; i < n; ++i)
    acc += static_cast<int64_t>(data[i]) * static_cast<int64_t>(weights[i]);
  return acc;
}

// Multi-RHS tiles: element-by-element over the exact dot kernels. SSE2 is
// the compatibility fallback — the register-blocked tile lives in the
// AVX2 backend; here correctness (each element one exact dot) is the
// whole contract.
void dot_s16_mrhs(const int16_t* data, int64_t data_stride, int64_t cols,
                  const int16_t* weights, int64_t row_stride, int64_t rows,
                  int64_t n, int64_t* out, int64_t out_stride) {
  for (int64_t l = 0; l < rows; ++l)
    for (int64_t c = 0; c < cols; ++c)
      out[l * out_stride + c] =
          dot_s16(data + c * data_stride, weights + l * row_stride, n);
}

void dot_s16_mrhs_nw(const int16_t* data, int64_t data_stride, int64_t cols,
                     const int16_t* weights, int64_t row_stride, int64_t rows,
                     int64_t n, int64_t* out, int64_t out_stride) {
  for (int64_t l = 0; l < rows; ++l)
    for (int64_t c = 0; c < cols; ++c)
      out[l * out_stride + c] =
          dot_s16_nw(data + c * data_stride, weights + l * row_stride, n);
}

void add_sat_s16(const int16_t* a, const int16_t* b, int16_t* out,
                 int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_adds_epi16(va, vb));
  }
  for (; i < n; ++i) {
    const int32_t s = static_cast<int32_t>(a[i]) + static_cast<int32_t>(b[i]);
    out[i] = static_cast<int16_t>(s > 32767 ? 32767 : (s < -32768 ? -32768
                                                                  : s));
  }
}

void relu_s16(const int16_t* x, int16_t* out, int64_t n) {
  const __m128i zero = _mm_setzero_si128();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_max_epi16(v, zero));
  }
  for (; i < n; ++i) out[i] = x[i] < 0 ? int16_t{0} : x[i];
}

void max_s16(const int16_t* x, int16_t* inout, int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i vx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(x + i));
    const __m128i vio =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(inout + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(inout + i),
                     _mm_max_epi16(vx, vio));
  }
  for (; i < n; ++i)
    if (x[i] > inout[i]) inout[i] = x[i];
}

void axpy_f32(float a, const float* x, float* y, int64_t n) {
  const __m128 va = _mm_set1_ps(a);
  int64_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128 vy = _mm_loadu_ps(y + i);
    const __m128 vx = _mm_loadu_ps(x + i);
    _mm_storeu_ps(y + i, _mm_add_ps(vy, _mm_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

// The deep-window slot reuses the no-wrap tile: the deep contract
// implies every single pmaddwd pair sum fits int32 (a one-pair "window"
// is a subset of the checked window), so _nw is valid for all dw inputs.
// The 32-bit-deep accumulation itself is an AVX2-only optimization.
constexpr KernelTable kTable = {
    dot_s16,
    dot_s16_mrhs, dot_s16_mrhs_nw, dot_s16_mrhs_nw,
    add_sat_s16,  relu_s16,        max_s16,         axpy_f32,
};

}  // namespace

const KernelTable* sse2_table() { return &kTable; }

}  // namespace cbrain::simd::detail

#else  // !__SSE2__

namespace cbrain::simd::detail {
const KernelTable* sse2_table() { return nullptr; }
}  // namespace cbrain::simd::detail

#endif
