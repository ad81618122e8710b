// Reference softmax and concat: the host-side steps every executor
// shares. The accelerator hands the logits back to the host for softmax,
// and concat is pure data movement, so the reference, cycle, functional
// and multi-chip tiers all run these same kernels — one copy of the
// double math keeps them quantizing identically.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "cbrain/ref/arith_traits.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain {

// Softmax over the flattened cube, computed in double and re-quantized.
// In-place variant: `out` must already have the input's dims and order;
// it is fully rewritten and nothing is allocated.
template <typename T>
void softmax_ref_into(const Tensor3<T>& input, Tensor3<T>& out) {
  using Tr = ArithTraits<T>;
  CBRAIN_CHECK(out.dims() == input.dims() && out.order() == input.order(),
               "softmax_ref_into output tensor not pre-shaped");
  double max_v = -1e300;
  for (const auto& v : input.storage())
    max_v = std::max(max_v, Tr::to_real(v));
  double denom = 0.0;
  for (const auto& v : input.storage())
    denom += std::exp(Tr::to_real(v) - max_v);
  for (std::size_t i = 0; i < input.storage().size(); ++i)
    out.storage()[i] = Tr::from_real(
        std::exp(Tr::to_real(input.storage()[i]) - max_v) / denom);
}

template <typename T>
Tensor3<T> softmax_ref(const Tensor3<T>& input) {
  Tensor3<T> out(input.dims(), input.order());
  softmax_ref_into(input, out);
  return out;
}

// Depth-stacks `inputs` in order into `out`, whose depth must be the sum
// of the input depths (spatial extents equal). Any order on either side.
template <typename T>
void concat_ref_into(const std::vector<const Tensor3<T>*>& inputs,
                     Tensor3<T>& out) {
  i64 d_base = 0;
  for (const Tensor3<T>* in : inputs) {
    for (i64 d = 0; d < in->dims().d; ++d)
      for (i64 y = 0; y < in->dims().h; ++y)
        for (i64 x = 0; x < in->dims().w; ++x)
          out.at(d_base + d, y, x) = in->at(d, y, x);
    d_base += in->dims().d;
  }
  CBRAIN_CHECK(d_base == out.dims().d, "concat depth mismatch");
}

template <typename T>
Tensor3<T> concat_ref(const std::vector<const Tensor3<T>*>& inputs,
                      const MapDims& out_dims) {
  Tensor3<T> out(out_dims, DataOrder::kSpatialMajor);
  concat_ref_into(inputs, out);
  return out;
}

}  // namespace cbrain
