// Fully-connected layer: a matrix-vector product over the flattened input
// cube, with the same single-rounding accumulation contract as conv.
#pragma once

#include <vector>

#include "cbrain/nn/layer.hpp"
#include "cbrain/ref/arith_traits.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain {

// input: any MapDims cube, flattened in its storage order (d, y, x) — the
// order the weights' din index follows. weights: {dout, din_total, 1, 1}.
// Output: {dout, 1, 1}.
template <typename T>
Tensor3<T> fc_ref(const Tensor3<T>& input, const Tensor4<T>& weights,
                  const std::vector<T>& bias, const FCParams& p) {
  using Tr = ArithTraits<T>;
  const i64 din = input.size();
  CBRAIN_CHECK(weights.dims().dout == p.dout && weights.dims().din == din &&
                   weights.dims().kh == 1 && weights.dims().kw == 1,
               "fc weight dims mismatch");
  CBRAIN_CHECK(bias.empty() || static_cast<i64>(bias.size()) == p.dout,
               "fc bias size mismatch");

  Tensor3<T> out({p.dout, 1, 1});
  const T* in_flat = input.raw_data();
  for (i64 o = 0; o < p.dout; ++o) {
    typename Tr::acc_t acc =
        bias.empty() ? Tr::zero()
                     : Tr::from_value(bias[static_cast<std::size_t>(o)]);
    for (i64 i = 0; i < din; ++i)
      acc += Tr::mul(in_flat[static_cast<std::size_t>(i)],
                     weights.at(o, i, 0, 0));
    out.at(o, 0, 0) = Tr::finalize(acc, p.relu);
  }
  return out;
}

}  // namespace cbrain
