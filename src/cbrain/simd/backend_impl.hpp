// Internal to cbrain::simd — the function table one backend translation
// unit exports. Each backend lives in its own .cpp so the build can apply
// per-file ISA flags (-mavx2, -mavxvnni) without letting vector codegen
// leak into the rest of the library; this header therefore depends on
// nothing but the standard <cstdint> and <cstring> and the plain data of
// conv_tile.hpp (a TU compiled with ISA flags must not instantiate inline
// functions shared with plainly-compiled TUs; the helpers below are
// `static`, so each backend compiles its own private copy).
#pragma once

#include <cstdint>
#include <cstring>

#include "cbrain/simd/conv_tile.hpp"

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

// The max-pool and residual-add references (simd.hpp max_s16, add_s16),
// which also finish the x86 kernels' short or ragged runs.
static inline void max_rows(const std::int16_t* x, std::int16_t* inout,
                            std::int64_t n, std::int64_t rows,
                            std::int64_t row_stride) {
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t i = 0; i < n; ++i)
      if (x[r * row_stride + i] > inout[i]) inout[i] = x[r * row_stride + i];
}

static inline void add_run(const std::int16_t* a, const std::int16_t* b,
                           std::int16_t* out, std::int64_t n, bool relu) {
  const std::int32_t lo = relu ? 0 : -32768;
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int32_t v = std::int32_t{a[i]} + b[i];
    out[i] = static_cast<std::int16_t>(v < lo ? lo : (v > 32767 ? 32767 : v));
  }
}

// The depthwise kernel's behavioural reference (simd.hpp dw_conv_s16):
// each output sums its k*k taps in int64, exact for any weights and
// data, then adds the bias and finalizes. It is also the exact kernel
// (dw_conv_s16_exact), and the AVX2 backend runs it for shapes it does
// not vectorize.
static inline void dw_conv_rows(const std::int16_t* in, std::int64_t in_stride,
                                std::int64_t stride, const std::int16_t* w,
                                std::int64_t k, std::int64_t rows,
                                std::int64_t cols, std::int64_t bias,
                                bool relu, std::int16_t* out,
                                std::int64_t out_stride) {
  for (std::int64_t r = 0; r < rows; ++r)
    for (std::int64_t c = 0; c < cols; ++c) {
      const std::int16_t* win = in + r * stride * in_stride + c * stride;
      std::int64_t acc = 0;
      for (std::int64_t ky = 0; ky < k; ++ky)
        for (std::int64_t kx = 0; kx < k; ++kx)
          acc += static_cast<std::int64_t>(w[ky * k + kx]) *
                 win[ky * in_stride + kx];
      out[r * out_stride + c] = finalize_acc(acc + bias, relu);
    }
}

// The start of flat pixels [q, q + n) of a conv tile in each output
// plane when they are one contiguous run of stored outputs — no pad
// column in between: the run stays left of column ow, or the planes have
// no pad columns (pitch == ow) — else -1.
static inline std::int64_t tile_run(const ConvTile& a, std::int64_t q,
                                    std::int64_t n) {
  const std::int64_t y = q / a.pitch;
  const std::int64_t x = q - y * a.pitch;
  return a.pitch == a.ow || x + n <= a.ow ? y * a.ow + x : -1;
}

// Stores the values vals[o * kTilePixels + i] of flat pixels [q, q + n)
// of a conv tile to `out` (a.out, or a.sums in raw-sum mode), dropping
// the pad columns (x >= ow).
template <typename T>
static inline void store_tile(const ConvTile& a, std::int64_t q,
                              std::int64_t n, const T* vals, T* out) {
  const std::int64_t run = tile_run(a, q, n);
  if (run >= 0) {
    for (std::int64_t o = 0; o < a.outs; ++o)
      std::memcpy(out + o * a.out_plane + run, vals + o * kTilePixels,
                  static_cast<std::size_t>(n) * sizeof(T));
    return;
  }
  std::int64_t y = q / a.pitch;
  std::int64_t x = q - y * a.pitch;
  for (std::int64_t i = 0; i < n; ++i) {
    if (x < a.ow)
      for (std::int64_t o = 0; o < a.outs; ++o)
        out[o * a.out_plane + y * a.ow + x] = vals[o * kTilePixels + i];
    if (++x == a.pitch) x = 0, ++y;
  }
}

// The tile kernel's behavioural reference (simd.hpp conv_tile_s16): the
// same staged layout and packed weights, each output summed in int64,
// exact for any weights and data. It is also the exact kernel
// (conv_tile_s16_exact) that weights off the filter-sum contract run.
// kRaw is the raw-sum mode (a.sums set), chosen once per call.
template <bool kRaw>
static inline void conv_tile_rows_body(const ConvTile& a) {
  std::int16_t vals[kTileOuts * kTilePixels];
  std::int64_t sums[kTileOuts * kTilePixels];
  for (std::int64_t q = a.q0; q < a.q1; q += kTilePixels) {
    const std::int64_t n = a.q1 - q < kTilePixels ? a.q1 - q : kTilePixels;
    std::int64_t acc[kTileOuts][kTilePixels] = {};
    const std::int16_t* wp = a.w;
    for (std::int64_t p = 0; p < a.pairs; ++p) {
      const std::int16_t* src = a.in + 2 * (p * a.pair_stride + q);
      for (std::int64_t t = 0; t < a.ntaps; ++t, wp += 2 * kTileOuts) {
        const std::int16_t* s = src + 2 * a.taps[t];
        for (std::int64_t o = 0; o < a.outs; ++o) {
          const std::int64_t we = wp[2 * o], wo = wp[2 * o + 1];
          for (std::int64_t i = 0; i < n; ++i)
            acc[o][i] += we * s[2 * i] + wo * s[2 * i + 1];
        }
      }
    }
    for (std::int64_t o = 0; o < a.outs; ++o)
      for (std::int64_t i = 0; i < n; ++i) {
        if constexpr (kRaw)
          sums[o * kTilePixels + i] = acc[o][i];
        else
          vals[o * kTilePixels + i] =
              finalize_acc(acc[o][i] + a.bias[o], a.relu);
      }
    if constexpr (kRaw)
      store_tile(a, q, n, sums, a.sums);
    else
      store_tile(a, q, n, vals, a.out);
  }
}

static inline void conv_tile_rows(const ConvTile& a) {
  if (a.sums != nullptr)
    conv_tile_rows_body<true>(a);
  else
    conv_tile_rows_body<false>(a);
}

struct KernelTable {
  void (*dot_s16_mrhs)(const std::int16_t*, std::int64_t, std::int64_t,
                       const std::int16_t*, std::int64_t, std::int64_t,
                       std::int64_t, std::int64_t*, std::int64_t);
  void (*dot_s16_mrhs_exact)(const std::int16_t*, std::int64_t,
                             std::int64_t, const std::int16_t*, std::int64_t,
                             std::int64_t, std::int64_t, std::int64_t*,
                             std::int64_t);
  void (*dw_conv_s16)(const std::int16_t*, std::int64_t, std::int64_t,
                      const std::int16_t*, std::int64_t, std::int64_t,
                      std::int64_t, std::int64_t, bool, std::int16_t*,
                      std::int64_t);
  void (*conv_tile_s16)(const ConvTile&);
  void (*max_s16)(const std::int16_t*, std::int16_t*, std::int64_t,
                  std::int64_t, std::int64_t);
  void (*add_s16)(const std::int16_t*, const std::int16_t*, std::int16_t*,
                  std::int64_t, bool);
  void (*lrn_s16)(const std::int16_t*, std::int16_t*, std::int64_t,
                  std::int64_t, std::int64_t, std::int64_t, double, double,
                  double*);
  void (*axpy_f32)(float, const float*, float*, std::int64_t);
};

// Always present; the behavioural reference the vector backends must
// match.
const KernelTable* scalar_table();
// nullptr when AVX2 is not compiled into this build (non-x86 target, or
// a compiler without -mavx2).
const KernelTable* avx2_table();
// The same kernels with AVX-VNNI; nullptr when the compiler lacks
// -mavxvnni (or -mavx2).
const KernelTable* avxvnni_table();

}  // namespace cbrain::simd::detail
