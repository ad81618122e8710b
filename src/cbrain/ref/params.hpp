// Deterministic synthetic parameters. The paper evaluates pre-trained
// inference where only speed/energy matter, so weights are seeded
// pseudo-random values, uniform in +-1/fan_in unless a scale is pinned.
// That scale keeps Q7.8 activations from saturating, but it overshoots:
// each layer's gain is about 1/sqrt(3*fan_in), so activations decay below
// the Q7.8 LSB within two layers and deep zoo tensors are mostly zeros
// (ROADMAP item 1). The values are pinned by digest (tests/test_ref.cpp).
#pragma once

#include <algorithm>
#include <vector>

#include "cbrain/common/rng.hpp"
#include "cbrain/nn/network.hpp"
#include "cbrain/ref/arith_traits.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain {

template <typename T>
struct LayerParamsData {
  Tensor4<T> weights;
  std::vector<T> bias;
};

template <typename T>
struct NetParamsData {
  // Indexed by LayerId; non-conv/fc layers hold empty tensors.
  std::vector<LayerParamsData<T>> per_layer;
};

template <typename T>
NetParamsData<T> init_net_params(const Network& net, std::uint64_t seed,
                                 double weight_scale = 0.0) {
  using Tr = ArithTraits<T>;
  Rng rng(seed);
  NetParamsData<T> out;
  out.per_layer.resize(static_cast<std::size_t>(net.size()));
  for (const Layer& l : net.layers()) {
    const KernelDims wd = l.weight_dims();
    if (wd.count() == 0) continue;
    auto& data = out.per_layer[static_cast<std::size_t>(l.id)];
    data.weights = Tensor4<T>(wd);
    // Fan-in scaled range unless the caller pinned a scale; keeps deep
    // fixed-point activations in range without per-layer calibration.
    const double fan_in = static_cast<double>(wd.din * wd.kh * wd.kw);
    const double scale =
        weight_scale > 0.0 ? weight_scale : 1.0 / std::max(1.0, fan_in);
    for (auto& w : data.weights.storage())
      w = Tr::from_real(rng.next_double(-scale, scale));
    data.bias.resize(static_cast<std::size_t>(wd.dout));
    for (auto& b : data.bias)
      b = Tr::from_real(rng.next_double(-scale, scale));
  }
  return out;
}

// Deterministic input cube in [lo, hi).
template <typename T>
Tensor3<T> random_input(MapDims dims, std::uint64_t seed, double lo = -1.0,
                        double hi = 1.0) {
  using Tr = ArithTraits<T>;
  Rng rng(seed);
  Tensor3<T> t(dims);
  for (auto& v : t.storage()) v = Tr::from_real(rng.next_double(lo, hi));
  return t;
}

}  // namespace cbrain
