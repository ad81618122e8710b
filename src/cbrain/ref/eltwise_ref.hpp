// Elementwise residual add: the golden model for kEltwiseAdd joins.
// Both operands are same-shape maps; the sum is formed at accumulator
// precision (Q16.16 for Fixed16) and finalized through the single
// rounding/saturation point of ArithTraits — the same arithmetic the
// accelerator's adder tree and the functional tier must reproduce.
#pragma once

#include "cbrain/nn/layer.hpp"
#include "cbrain/ref/arith_traits.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain {

template <typename T>
Tensor3<T> eltwise_add_ref(const Tensor3<T>& a, const Tensor3<T>& b,
                           const EltwiseAddParams& p) {
  using Tr = ArithTraits<T>;
  CBRAIN_CHECK(a.dims() == b.dims(),
               "eltwise add: operand dims mismatch (" << a.dims().to_string()
                                                      << " vs "
                                                      << b.dims().to_string()
                                                      << ")");
  Tensor3<T> out(a.dims());
  const MapDims d = a.dims();
  for (i64 z = 0; z < d.d; ++z)
    for (i64 y = 0; y < d.h; ++y)
      for (i64 x = 0; x < d.w; ++x) {
        typename Tr::acc_t acc = Tr::from_value(a.at(z, y, x));
        acc += Tr::from_value(b.at(z, y, x));
        out.at(z, y, x) = Tr::finalize(acc, p.relu);
      }
  return out;
}

}  // namespace cbrain
