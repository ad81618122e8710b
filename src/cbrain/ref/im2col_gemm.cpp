#include "cbrain/ref/im2col_gemm.hpp"

#include <algorithm>
#include <cstring>

#include "cbrain/simd/simd.hpp"

namespace cbrain {

void sgemm(const float* a, const float* b, float* c, i64 m, i64 n, i64 k,
           bool accumulate) {
  constexpr i64 kBlockK = 64;
  constexpr i64 kBlockM = 32;
  if (!accumulate) std::memset(c, 0, sizeof(float) * m * n);
  for (i64 m0 = 0; m0 < m; m0 += kBlockM) {
    const i64 m1 = std::min(m0 + kBlockM, m);
    for (i64 k0 = 0; k0 < k; k0 += kBlockK) {
      const i64 k1 = std::min(k0 + kBlockK, k);
      for (i64 i = m0; i < m1; ++i) {
        for (i64 kk = k0; kk < k1; ++kk) {
          const float aik = a[i * k + kk];
          if (aik == 0.0f) continue;
          // axpy micro-kernel: per-element mul+add (no FMA), so the sum
          // stays bit-identical across SIMD backends.
          simd::axpy_f32(aik, b + kk * n, c + i * n, n);
        }
      }
    }
  }
}

void im2col(const Tensor3<float>& input, i64 din_begin, i64 din_count,
            const ConvParams& p, std::vector<float>& col) {
  const MapDims in = input.dims();
  const i64 oh = conv_out_extent(in.h, p.k_eff(), p.stride, p.pad);
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  const i64 cols = oh * ow;
  col.assign(static_cast<std::size_t>(din_count * p.k * p.k * cols), 0.0f);
  i64 row = 0;
  for (i64 d = 0; d < din_count; ++d) {
    for (i64 ky = 0; ky < p.k; ++ky) {
      for (i64 kx = 0; kx < p.k; ++kx, ++row) {
        float* dst = col.data() + row * cols;
        i64 idx = 0;
        for (i64 oy = 0; oy < oh; ++oy) {
          const i64 y = oy * p.stride - p.pad + ky * p.dilation;
          for (i64 ox = 0; ox < ow; ++ox, ++idx) {
            const i64 x = ox * p.stride - p.pad + kx * p.dilation;
            dst[idx] = input.at_padded(din_begin + d, y, x);
          }
        }
      }
    }
  }
}

Tensor3<float> conv2d_im2col(const Tensor3<float>& input,
                             const Tensor4<float>& weights,
                             const std::vector<float>& bias,
                             const ConvParams& p) {
  const MapDims in = input.dims();
  const i64 din_g = p.din_per_group(in.d);
  const i64 dout_g = p.dout_per_group();
  const i64 oh = conv_out_extent(in.h, p.k_eff(), p.stride, p.pad);
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  const i64 cols = oh * ow;
  const i64 krows = din_g * p.k * p.k;

  Tensor3<float> out({p.dout, oh, ow});
  std::vector<float> col;
  std::vector<float> result(static_cast<std::size_t>(dout_g * cols));

  for (i64 g = 0; g < p.groups; ++g) {
    im2col(input, g * din_g, din_g, p, col);
    // Weights of group g are rows [g*dout_g, (g+1)*dout_g) and are already
    // contiguous in (dout, din_g, k, k) storage.
    const float* wmat = weights.raw_data() + g * dout_g * krows;
    sgemm(wmat, col.data(), result.data(), dout_g, cols, krows);
    for (i64 od = 0; od < dout_g; ++od) {
      const i64 dout_abs = g * dout_g + od;
      const float b =
          bias.empty() ? 0.0f : bias[static_cast<std::size_t>(dout_abs)];
      float* dst = out.raw_data() + dout_abs * cols;  // spatial-major
      const float* src = result.data() + od * cols;
      for (i64 i = 0; i < cols; ++i) {
        float v = src[i] + b;
        if (p.relu && v < 0.0f) v = 0.0f;
        dst[i] = v;
      }
    }
  }
  return out;
}

}  // namespace cbrain
