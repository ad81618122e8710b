// Direct (sliding-window) convolution: the golden model every accelerator
// scheme is validated against. Deliberately written as the textbook
// six-deep loop nest — clarity over speed; the fast CPU path lives in
// im2col_gemm.hpp.
#pragma once

#include <vector>

#include "cbrain/nn/layer.hpp"
#include "cbrain/ref/arith_traits.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain {

// input:  {Din, H, W}; weights: {Dout, Din/groups, k, k};
// bias: empty or Dout values. Output: {Dout, out_h, out_w}.
template <typename T>
Tensor3<T> conv2d_ref(const Tensor3<T>& input, const Tensor4<T>& weights,
                      const std::vector<T>& bias, const ConvParams& p) {
  using Tr = ArithTraits<T>;
  const MapDims in = input.dims();
  const i64 din_g = p.din_per_group(in.d);
  const i64 dout_g = p.dout_per_group();
  CBRAIN_CHECK(weights.dims().dout == p.dout && weights.dims().din == din_g &&
                   weights.dims().kh == p.k && weights.dims().kw == p.k,
               "weight dims mismatch: " << weights.dims().to_string());
  CBRAIN_CHECK(bias.empty() || static_cast<i64>(bias.size()) == p.dout,
               "bias size mismatch");

  const i64 oh = conv_out_extent(in.h, p.k_eff(), p.stride, p.pad);
  const i64 ow = conv_out_extent(in.w, p.k_eff(), p.stride, p.pad);
  Tensor3<T> out({p.dout, oh, ow});

  for (i64 g = 0; g < p.groups; ++g) {
    for (i64 od = 0; od < dout_g; ++od) {
      const i64 dout_abs = g * dout_g + od;
      for (i64 oy = 0; oy < oh; ++oy) {
        for (i64 ox = 0; ox < ow; ++ox) {
          typename Tr::acc_t acc =
              bias.empty() ? Tr::zero()
                           : Tr::from_value(bias[static_cast<std::size_t>(
                                 dout_abs)]);
          const i64 base_y = oy * p.stride - p.pad;
          const i64 base_x = ox * p.stride - p.pad;
          for (i64 id = 0; id < din_g; ++id) {
            const i64 din_abs = g * din_g + id;
            for (i64 ky = 0; ky < p.k; ++ky) {
              for (i64 kx = 0; kx < p.k; ++kx) {
                const T v = input.at_padded(din_abs, base_y + ky * p.dilation,
                                            base_x + kx * p.dilation);
                acc += Tr::mul(v, weights.at(dout_abs, id, ky, kx));
              }
            }
          }
          out.at(dout_abs, oy, ox) = Tr::finalize(acc, p.relu);
        }
      }
    }
  }
  return out;
}

}  // namespace cbrain
