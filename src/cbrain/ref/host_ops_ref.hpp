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
// In-place variant: `out` must already have the input's dims; it is fully
// rewritten and nothing is allocated.
template <typename T>
void softmax_ref_into(const Tensor3<T>& input, Tensor3<T>& out) {
  using Tr = ArithTraits<T>;
  CBRAIN_CHECK(out.dims() == input.dims(),
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
  Tensor3<T> out(input.dims());
  softmax_ref_into(input, out);
  return out;
}

// Depth-stacks `inputs` in order into `out`, whose depth must be the sum
// of the input depths (spatial extents equal). Each input's storage is
// one contiguous run of the output's.
template <typename T>
void concat_ref_into(const std::vector<const Tensor3<T>*>& inputs,
                     Tensor3<T>& out) {
  T* dst = out.raw_data();
  i64 d_base = 0;
  for (const Tensor3<T>* in : inputs) {
    CBRAIN_CHECK(in->dims().h == out.dims().h &&
                     in->dims().w == out.dims().w &&
                     d_base + in->dims().d <= out.dims().d,
                 "concat input does not fit the output");
    dst = std::copy(in->storage().begin(), in->storage().end(), dst);
    d_base += in->dims().d;
  }
  CBRAIN_CHECK(d_base == out.dims().d, "concat depth mismatch");
}

template <typename T>
Tensor3<T> concat_ref(const std::vector<const Tensor3<T>*>& inputs,
                      const MapDims& out_dims) {
  Tensor3<T> out(out_dims);
  concat_ref_into(inputs, out);
  return out;
}

}  // namespace cbrain
