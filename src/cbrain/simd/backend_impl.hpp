// Internal to cbrain::simd — the function table one backend translation
// unit exports. Each backend lives in its own .cpp so the build can apply
// per-file ISA flags (-mavx2) without letting vector codegen leak into
// the rest of the library; this header therefore depends on nothing but
// <cstdint> (a TU compiled with -mavx2 must not instantiate inline
// functions shared with plainly-compiled TUs; the helpers below are
// `static`, so each backend compiles its own private copy).
#pragma once

#include <cstdint>

namespace cbrain::simd::detail {

// Q16.16 accumulator -> Q7.8 output: round half away from zero, saturate
// to int16, then the optional ReLU — Fixed16::from_acc followed by
// cbrain::relu, restated here because this header may not share inline
// code with the rest of the library.
static inline std::int16_t finalize_acc(std::int64_t acc, bool relu) {
  const std::int64_t adjusted = acc >= 0 ? acc + 128 : acc - 128;
  std::int64_t q = adjusted / 256;
  if (q > 32767) q = 32767;
  if (q < -32768) q = -32768;
  if (relu && q < 0) q = 0;
  return static_cast<std::int16_t>(q);
}

// The depthwise kernel's behavioural reference (simd.hpp dw_conv_s16):
// each output sums its k*k taps in int32, which the depthwise weight
// contract keeps exact, then widens, adds the bias and finalizes. The
// AVX2 backend also runs it for shapes it does not vectorize.
static inline void dw_conv_rows(const std::int16_t* in, std::int64_t in_stride,
                                std::int64_t stride, const std::int16_t* w,
                                std::int64_t k, std::int64_t rows,
                                std::int64_t cols, std::int64_t bias,
                                bool relu, std::int16_t* out,
                                std::int64_t out_stride) {
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::int16_t* win = in + r * stride * in_stride + c * stride;
      std::int32_t acc = 0;
      for (std::int64_t ky = 0; ky < k; ++ky)
        for (std::int64_t kx = 0; kx < k; ++kx)
          acc += static_cast<std::int32_t>(w[ky * k + kx]) *
                 win[ky * in_stride + kx];
      out[r * out_stride + c] = finalize_acc(acc + bias, relu);
    }
}

struct KernelTable {
  void (*dot_s16_mrhs)(const std::int16_t*, std::int64_t, std::int64_t,
                       const std::int16_t*, std::int64_t, std::int64_t,
                       std::int64_t, std::int64_t*, std::int64_t);
  void (*dot_s16_mrhs_dw)(const std::int16_t*, std::int64_t, std::int64_t,
                          const std::int16_t*, std::int64_t, std::int64_t,
                          std::int64_t, std::int64_t*, std::int64_t);
  void (*dw_conv_s16)(const std::int16_t*, std::int64_t, std::int64_t,
                      const std::int16_t*, std::int64_t, std::int64_t,
                      std::int64_t, std::int64_t, bool, std::int16_t*,
                      std::int64_t);
  void (*max_s16)(const std::int16_t*, std::int16_t*, std::int64_t);
  void (*axpy_f32)(float, const float*, float*, std::int64_t);
};

// Always present; the behavioural reference AVX2 must match.
const KernelTable* scalar_table();
// nullptr when AVX2 is not compiled into this build (non-x86 target, or
// a compiler without -mavx2).
const KernelTable* avx2_table();

}  // namespace cbrain::simd::detail
