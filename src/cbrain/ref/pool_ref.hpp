// Reference pooling with Caffe-style ceil-mode windows: a window may hang
// past the input edge; max pools over the valid pixels only, avg divides
// by the count of valid pixels.
#pragma once

#include <algorithm>

#include "cbrain/common/thread_pool.hpp"
#include "cbrain/nn/layer.hpp"
#include "cbrain/ref/arith_traits.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain {

// Ceil mode with Caffe's clip of an empty trailing window — must match
// Network::add_pool exactly.
inline MapDims pool_out_dims(const MapDims& in, const PoolParams& p) {
  i64 oh = ceil_div(in.h + 2 * p.pad - p.k, p.stride) + 1;
  i64 ow = ceil_div(in.w + 2 * p.pad - p.k, p.stride) + 1;
  if ((oh - 1) * p.stride >= in.h + p.pad) --oh;
  if ((ow - 1) * p.stride >= in.w + p.pad) --ow;
  return {in.d, oh, ow};
}

// In-place variant: `out` must already have pool_out_dims(input.dims(), p).
// The depth planes are partitioned over cbrain::parallel, one plane per
// task; each output element is computed entirely by one task, so results
// are bit-identical at any worker count. Allocates nothing.
template <typename T>
void pool2d_ref_into(const Tensor3<T>& input, const PoolParams& p,
                     Tensor3<T>& out) {
  using Tr = ArithTraits<T>;
  const MapDims in = input.dims();
  const MapDims od = pool_out_dims(in, p);
  CBRAIN_CHECK(out.dims() == od,
               "pool2d_ref_into output tensor not pre-shaped");
  // Each depth plane is contiguous, so the window scan walks raw row
  // pointers (y outer, x inner) instead of recomputing at()'s index
  // multiplies per element.
  parallel::parallel_for(in.d, [&](i64 d) {
    const T* in_plane = input.raw_data() + d * in.h * in.w;
    T* out_plane = out.raw_data() + d * od.h * od.w;
    for (i64 oy = 0; oy < od.h; ++oy) {
      for (i64 ox = 0; ox < od.w; ++ox) {
        const i64 y0 = std::max<i64>(oy * p.stride - p.pad, 0);
        const i64 x0 = std::max<i64>(ox * p.stride - p.pad, 0);
        const i64 y1 = std::min<i64>(oy * p.stride - p.pad + p.k, in.h);
        const i64 x1 = std::min<i64>(ox * p.stride - p.pad + p.k, in.w);
        CBRAIN_DCHECK(y1 > y0 && x1 > x0, "empty pool window");
        if (p.kind == PoolKind::kMax) {
          T best = in_plane[y0 * in.w + x0];
          for (i64 y = y0; y < y1; ++y) {
            const T* row = in_plane + y * in.w;
            for (i64 x = x0; x < x1; ++x) best = std::max(best, row[x]);
          }
          out_plane[oy * od.w + ox] = best;
        } else {
          double sum = 0.0;
          for (i64 y = y0; y < y1; ++y) {
            const T* row = in_plane + y * in.w;
            for (i64 x = x0; x < x1; ++x) sum += Tr::to_real(row[x]);
          }
          const double n = static_cast<double>((y1 - y0) * (x1 - x0));
          out_plane[oy * od.w + ox] = Tr::from_real(sum / n);
        }
      }
    }
  });
}

template <typename T>
Tensor3<T> pool2d_ref(const Tensor3<T>& input, const PoolParams& p) {
  Tensor3<T> out(pool_out_dims(input.dims(), p));
  pool2d_ref_into(input, p, out);
  return out;
}

}  // namespace cbrain
