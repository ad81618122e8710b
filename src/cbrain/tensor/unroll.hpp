// Data unrolling (im2col): the software-style realization of intra-kernel
// parallelism analyzed in §4.1.2(1) and Fig. 3 of the paper. Every k x k
// window is written out as a contiguous row, duplicating overlapped pixels
// by the factor T of Equation 1.
#pragma once

#include "cbrain/common/math_util.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain {

struct ConvGeometry {
  i64 in_h = 0;
  i64 in_w = 0;
  i64 k = 0;
  i64 stride = 1;
  i64 pad = 0;
  i64 dilation = 1;

  i64 k_eff() const { return (k - 1) * dilation + 1; }
  i64 out_h() const { return conv_out_extent(in_h, k_eff(), stride, pad); }
  i64 out_w() const { return conv_out_extent(in_w, k_eff(), stride, pad); }
};

// Equation 1: duplication factor of unrolling relative to the raw map.
//   T = (out_h * out_w * k * k) / (in_h * in_w)
double unroll_duplication_factor(const ConvGeometry& g);

// Words (16-bit elements) of one raw map vs. its unrolled form; multiply
// by Din for the whole input cube. Fig. 3 plots these as bits.
i64 raw_map_words(const ConvGeometry& g);
i64 unrolled_map_words(const ConvGeometry& g);

// Materializes the unrolled (im2col) matrix for a Din-map input cube:
// output dims = { d = Din, h = out_h*out_w (one window per row),
// w = k*k (window elements) }. Rows are emitted in raster order of the
// output map, which is exactly the stream order the intra-kernel scheme
// feeds the PEs.
template <typename T>
Tensor3<T> unroll_input(const Tensor3<T>& input, const ConvGeometry& g) {
  CBRAIN_CHECK(input.dims().h == g.in_h && input.dims().w == g.in_w,
               "geometry does not match input tensor");
  const MapDims out_dims{input.dims().d, g.out_h() * g.out_w(), g.k * g.k};
  Tensor3<T> out(out_dims);
  for (i64 d = 0; d < input.dims().d; ++d) {
    i64 row = 0;
    for (i64 oy = 0; oy < g.out_h(); ++oy) {
      for (i64 ox = 0; ox < g.out_w(); ++ox, ++row) {
        const i64 base_y = oy * g.stride - g.pad;
        const i64 base_x = ox * g.stride - g.pad;
        i64 col = 0;
        for (i64 ky = 0; ky < g.k; ++ky)
          for (i64 kx = 0; kx < g.k; ++kx, ++col)
            out.at(d, row, col) = input.at_padded(
                d, base_y + ky * g.dilation, base_x + kx * g.dilation);
      }
    }
  }
  return out;
}

}  // namespace cbrain
