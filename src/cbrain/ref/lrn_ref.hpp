// Local response normalization across channels (AlexNet/GoogLeNet style):
//   out[d] = in[d] / (bias + alpha/n * sum_{j in window(d)} in[j]^2)^beta
// Computed in double and re-quantized — on the accelerator this runs on
// the activation-function unit, outside the fixed-point MAC datapath.
#pragma once

#include <cmath>
#include <vector>

#include "cbrain/common/thread_pool.hpp"
#include "cbrain/nn/layer.hpp"
#include "cbrain/ref/arith_traits.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain {

// In-place variant: `out` must already have the input's dims (the
// batched functional executor keeps per-layer output tensors resident
// and fully rewrites them each inference). The spatial rows are
// partitioned over cbrain::parallel, one row per task — every output
// element is still computed entirely by one task from the same scratch
// values, so results are bit-identical at any worker count. Per-thread
// scratch is thread_local: the steady state allocates nothing.
template <typename T>
void lrn_ref_into(const Tensor3<T>& input, const LRNParams& p,
                  Tensor3<T>& out) {
  using Tr = ArithTraits<T>;
  const MapDims in = input.dims();
  CBRAIN_CHECK(out.dims() == in, "lrn_ref_into output tensor not pre-shaped");
  const i64 half = p.local_size / 2;
  // alpha/n is the same double every element; computing it once is the
  // identical value the per-element division produced.
  const double alpha_over_n = p.alpha / static_cast<double>(p.local_size);
  // ReLU layers feed LRN mostly zeros, and 0 / pow(scale, beta) is exactly
  // +0.0 whenever the divisor is a positive non-zero double — guaranteed
  // when scale >= 1 and beta >= 0 (pow then returns a value in [1, +inf],
  // and 0/x == +0 for every such x, infinity included). Skipping the pow
  // for those elements changes no output bit and removes the dominant
  // cost (~one std::pow per element) for roughly half of a post-ReLU map.
  const bool zero_skippable = p.beta >= 0.0;
  // The AlexNet-family exponent 0.75 decomposes into square roots:
  // scale^0.75 == sqrt(scale) * sqrt(sqrt(scale)) exactly in the reals,
  // and IEEE sqrt is correctly rounded, so the composed value is what
  // this expression — not std::pow — rounds to. Both execution tiers run
  // this same kernel, so the tier cross-validation contract holds; the
  // win is ~4x on the non-zero elements (two sqrts replace a pow call).
  const bool beta_three_quarters = p.beta == 0.75;
  // Finalize one element: the simulator and the functional tier both run
  // this kernel, so they quantize identically.
  const auto finalize = [&](double val, double sum_sq) -> T {
    const double scale = p.bias + alpha_over_n * sum_sq;
    double v;
    if (zero_skippable && scale >= 1.0 && val == 0.0) {
      v = 0.0;
    } else if (beta_three_quarters) {
      const double r = std::sqrt(scale);
      v = val / (r * std::sqrt(r));
    } else {
      v = val / std::pow(scale, p.beta);
    }
    return Tr::from_real(v);
  };
  parallel::parallel_for(in.h, [&](i64 y) {
    // Each (d, y) row is contiguous in x, so the whole y-row of every
    // channel is squared once in one linear sweep (instead of once per
    // window it falls in) and the window sum runs j-outer over contiguous
    // rows — the x loop has no loop-carried dependence and
    // auto-vectorizes. Each element's sum accumulates j = lo→hi in order.
    // The finalize pass re-reads the input row (still cache-hot) rather
    // than staging a second d*w scratch of converted values.
    thread_local std::vector<double> sq;
    thread_local std::vector<double> acc;
    sq.resize(static_cast<std::size_t>(in.d * in.w));
    acc.resize(static_cast<std::size_t>(in.w));
    const T* in_base = input.raw_data();
    T* out_base = out.raw_data();
    for (i64 d = 0; d < in.d; ++d) {
      const T* row = in_base + (d * in.h + y) * in.w;
      double* srow = sq.data() + d * in.w;
      for (i64 x = 0; x < in.w; ++x) {
        const double v = Tr::to_real(row[x]);
        srow[x] = v * v;
      }
    }
    for (i64 d = 0; d < in.d; ++d) {
      const i64 lo = std::max<i64>(0, d - half);
      const i64 hi = std::min<i64>(in.d - 1, d + half);
      const T* irow = in_base + (d * in.h + y) * in.w;
      T* orow = out_base + (d * in.h + y) * in.w;
      double* arow = acc.data();
      for (i64 x = 0; x < in.w; ++x) arow[x] = 0.0;
      for (i64 j = lo; j <= hi; ++j) {
        const double* srow = sq.data() + j * in.w;
        for (i64 x = 0; x < in.w; ++x) arow[x] += srow[x];
      }
      for (i64 x = 0; x < in.w; ++x)
        orow[x] = finalize(Tr::to_real(irow[x]), arow[x]);
    }
  });
}

template <typename T>
Tensor3<T> lrn_ref(const Tensor3<T>& input, const LRNParams& p) {
  Tensor3<T> out(input.dims());
  lrn_ref_into(input, p, out);
  return out;
}

}  // namespace cbrain
