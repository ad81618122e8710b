// Shared helpers for the test suite: running the three executors (golden
// reference, analytical model, cycle-level simulator) on the same network
// and comparing their outputs and counters.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "cbrain/compiler/compiler.hpp"
#include "cbrain/func/executor.hpp"
#include "cbrain/model/network_model.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/ref/executor.hpp"
#include "cbrain/sim/executor.hpp"
#include "cbrain/simd/simd.hpp"

namespace cbrain::test {

// A deliberately tiny accelerator that forces multi-band / multi-din /
// multi-dout tiling even on toy layers — exercises the tiler and the
// partial-sum-across-tiles paths the big buffers would hide.
inline AcceleratorConfig tiny_config(i64 tin = 4, i64 tout = 4) {
  AcceleratorConfig c = AcceleratorConfig::with_pe(tin, tout);
  c.inout_buf.size_bytes = 4 * 1024;
  c.weight_buf.size_bytes = 2 * 1024;
  c.bias_buf.size_bytes = 1024;
  return c;
}

// He-uniform parameters (He et al. 2015, arXiv:1502.01852), drawn as
// Q7.8 integers: weights uniform in +-round(256 * sqrt(6 / fan_in)),
// biases in +-26 (about +-0.1). Unlike init_net_params' +-1/fan_in they
// keep every zoo layer live, so an equivalence check compares real
// activations instead of zeros.
inline NetParamsData<Fixed16> he_uniform_params(const Network& net,
                                                std::uint64_t seed) {
  Rng rng(seed);
  NetParamsData<Fixed16> out;
  out.per_layer.resize(static_cast<std::size_t>(net.size()));
  for (const Layer& l : net.layers()) {
    const KernelDims wd = l.weight_dims();
    if (wd.count() == 0) continue;
    auto& data = out.per_layer[static_cast<std::size_t>(l.id)];
    data.weights = Tensor4<Fixed16>(wd);
    const auto bound = static_cast<std::int64_t>(std::llround(
        256.0 * std::sqrt(6.0 / static_cast<double>(wd.din * wd.kh * wd.kw))));
    for (auto& w : data.weights.storage())
      w = Fixed16::from_raw(static_cast<std::int16_t>(rng.next_int(-bound, bound)));
    data.bias.resize(static_cast<std::size_t>(wd.dout));
    for (auto& b : data.bias)
      b = Fixed16::from_raw(static_cast<std::int16_t>(rng.next_int(-26, 26)));
  }
  return out;
}

// Every TrafficCounters field of one layer, space-separated.
inline std::string counters_line(const TrafficCounters& c) {
  std::string s;
  for (const i64 v :
       {c.input_reads, c.input_writes, c.output_reads, c.output_writes,
        c.weight_reads, c.weight_writes, c.bias_reads, c.bias_writes,
        c.dram_reads, c.dram_writes, c.mul_ops, c.idle_mul_slots, c.add_ops,
        c.compute_cycles, c.total_cycles})
    s += std::to_string(v) + " ";
  return s;
}

struct RunResult {
  Tensor3<Fixed16> ref_out;
  SimResult sim;
  NetworkModelResult model;
};

// Runs reference + simulator + model on `net` under `policy`/`config` with
// seeded synthetic parameters, returning everything for comparison.
inline RunResult run_all(const Network& net, Policy policy,
                         const AcceleratorConfig& config,
                         std::uint64_t seed = 42) {
  RunResult r;
  auto params = init_net_params<Fixed16>(net, seed);
  auto input = random_input<Fixed16>(net.layer(0).out_dims, seed ^ 0x1234);

  RefExecutor<Fixed16> ref(net, params);
  r.ref_out = ref.run(input);

  auto compiled = compile_network(net, policy, config);
  EXPECT_TRUE(compiled.is_ok()) << compiled.status().to_string();
  SimExecutor sim(net, compiled.value(), config);
  r.sim = sim.run(input, params);

  ModelOptions opt;
  opt.include_fc = true;  // compare every layer the program contains
  r.model = model_network(net, compiled.value(), config, opt);
  return r;
}

// Bit-exact tensor comparison with a readable first-mismatch message.
inline ::testing::AssertionResult tensors_equal(const Tensor3<Fixed16>& a,
                                                const Tensor3<Fixed16>& b) {
  if (a.dims() != b.dims())
    return ::testing::AssertionFailure()
           << "dims " << a.dims().to_string() << " vs "
           << b.dims().to_string();
  for (i64 d = 0; d < a.dims().d; ++d)
    for (i64 y = 0; y < a.dims().h; ++y)
      for (i64 x = 0; x < a.dims().w; ++x)
        if (a.at(d, y, x) != b.at(d, y, x))
          return ::testing::AssertionFailure()
                 << "mismatch at (" << d << "," << y << "," << x
                 << "): " << a.at(d, y, x).raw() << " vs "
                 << b.at(d, y, x).raw();
  return ::testing::AssertionSuccess();
}

#define EXPECT_COUNTER_EQ(field, sim_c, model_c)                          \
  EXPECT_EQ((sim_c).field, (model_c).field)                               \
      << "counter '" #field "' diverges (sim vs model)"

// Asserts the simulator's counters equal the analytical model's for one
// layer — the model/simulator agreement property of DESIGN.md §5.
inline void expect_counters_match(const TrafficCounters& sim_c,
                                  const TrafficCounters& model_c,
                                  const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_COUNTER_EQ(input_reads, sim_c, model_c);
  EXPECT_COUNTER_EQ(input_writes, sim_c, model_c);
  EXPECT_COUNTER_EQ(output_reads, sim_c, model_c);
  EXPECT_COUNTER_EQ(output_writes, sim_c, model_c);
  EXPECT_COUNTER_EQ(weight_reads, sim_c, model_c);
  EXPECT_COUNTER_EQ(weight_writes, sim_c, model_c);
  EXPECT_COUNTER_EQ(bias_reads, sim_c, model_c);
  EXPECT_COUNTER_EQ(bias_writes, sim_c, model_c);
  EXPECT_COUNTER_EQ(dram_reads, sim_c, model_c);
  EXPECT_COUNTER_EQ(dram_writes, sim_c, model_c);
  EXPECT_COUNTER_EQ(mul_ops, sim_c, model_c);
  EXPECT_COUNTER_EQ(idle_mul_slots, sim_c, model_c);
  EXPECT_COUNTER_EQ(add_ops, sim_c, model_c);
  EXPECT_COUNTER_EQ(compute_cycles, sim_c, model_c);
  EXPECT_COUNTER_EQ(total_cycles, sim_c, model_c);
}

// Runs `net` through the cycle simulator and the functional tier and
// asserts every intermediate cube matches: each single-input layer's
// operand as the functional tier produced it against the cube the
// simulator read from DRAM (concat consumes pre-assembled operands).
inline void expect_func_matches_sim_per_layer(
    const Network& net, const AcceleratorConfig& config,
    const NetParamsData<Fixed16>& params, const Tensor3<Fixed16>& input) {
  auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  SimExecutor sim(net, compiled.value(), config);
  sim.run(input, params);
  func::FuncExecutor func(net, compiled.value(), config);
  func.load_params(params);
  func.infer(input);
  for (const Layer& l : net.layers()) {
    if (l.kind == LayerKind::kInput || l.inputs.size() != 1) continue;
    SCOPED_TRACE(l.name);
    EXPECT_TRUE(tensors_equal(
        func.output(l.inputs[0]), sim.read_input_cube(l.id)));
  }
}

// The functional tier's packing rule, restated serially from each layer's
// shape. FC: every row copied into a zero-padded gemm_row_stride slot. A
// dilation-1 per-plane depthwise conv: its k*k filters back to back. Any
// other conv: per group, ceil(dout_g / kTileOuts) blocks of
// simd::kTileOuts output channels, each laid out (channel pair, tap,
// output, pair half) with zeros past dout_g and for the partner of an odd
// last channel. Every layout runs exact when some filter or row fails
// simd::filter_sum_ok, checked here one row at a time. Asserts
// `packed` (FuncExecutor::load_params's chunked parallel pack) equals it
// element for element, one row or block at a time so the biggest zoo
// layers are not held twice.
inline void expect_pack_matches_serial(
    const Network& net, const NetParamsData<Fixed16>& params,
    const func::FuncExecutor::PackedParams& packed) {
  ASSERT_EQ(static_cast<i64>(packed.size()), net.size());
  std::vector<std::int16_t> row;
  for (const Layer& l : net.layers()) {
    if (!l.is_conv() && !l.is_fc()) continue;
    SCOPED_TRACE(l.name);
    const auto idx = static_cast<std::size_t>(l.id);
    const auto& pd = params.per_layer[idx];
    const auto& pl = packed[idx];
    const i64 dout = l.is_conv() ? l.conv().dout : l.fc().dout;
    const i64 row_len = pd.weights.dims().count() / dout;
    const auto weight = [&](i64 o, i64 i) {
      return pd.weights.raw_data()[o * row_len + i].raw();
    };
    bool fast = true;
    if (l.is_fc()) {
      const i64 stride = func::gemm_row_stride(row_len);
      ASSERT_EQ(static_cast<i64>(pl.weights.size()), dout * stride);
      row.assign(static_cast<std::size_t>(stride), 0);
      for (i64 o = 0; o < dout; ++o) {
        for (i64 i = 0; i < row_len; ++i)
          row[static_cast<std::size_t>(i)] = weight(o, i);
        ASSERT_TRUE(std::equal(row.begin(), row.end(),
                               pl.weights.begin() + o * stride))
            << "packed row " << o << " differs";
        fast = fast && simd::filter_sum_ok(row.data(), stride, 1, stride);
      }
    } else {
      const ConvParams& p = l.conv();
      row.resize(static_cast<std::size_t>(row_len));
      for (i64 o = 0; o < dout; ++o) {
        for (i64 i = 0; i < row_len; ++i)
          row[static_cast<std::size_t>(i)] = weight(o, i);
        fast = fast && simd::filter_sum_ok(row.data(), row_len, 1, row_len);
      }
      if (p.depthwise(l.in_dims.d) && p.dout_per_group() == 1 &&
          p.dilation == 1) {
        ASSERT_EQ(static_cast<i64>(pl.weights.size()), dout * row_len);
        for (i64 i = 0; i < dout * row_len; ++i)
          ASSERT_EQ(pl.weights[static_cast<std::size_t>(i)],
                    pd.weights.raw_data()[i].raw())
              << "packed depthwise word " << i << " differs";
      } else {
        const i64 din_g = p.din_per_group(l.in_dims.d);
        const i64 dout_g = p.dout_per_group();
        const i64 taps = p.k * p.k;
        const i64 pairs = (din_g + 1) / 2;
        const i64 blocks = (dout_g + simd::kTileOuts - 1) / simd::kTileOuts;
        ASSERT_EQ(static_cast<i64>(pl.weights.size()),
                  p.groups * blocks * pairs * taps * simd::kTileOuts * 2);
        auto it = pl.weights.begin();
        for (i64 g = 0; g < p.groups; ++g)
          for (i64 j = 0; j < blocks; ++j) {
            row.clear();
            for (i64 pr = 0; pr < pairs; ++pr)
              for (i64 t = 0; t < taps; ++t)
                for (i64 o = 0; o < simd::kTileOuts; ++o)
                  for (i64 c = 2 * pr; c < 2 * pr + 2; ++c) {
                    const i64 oc = j * simd::kTileOuts + o;
                    row.push_back(oc < dout_g && c < din_g
                                      ? weight(g * dout_g + oc, c * taps + t)
                                      : std::int16_t{0});
                  }
            ASSERT_TRUE(std::equal(row.begin(), row.end(), it))
                << "packed block " << j << " of group " << g << " differs";
            it += static_cast<std::ptrdiff_t>(row.size());
          }
      }
    }
    EXPECT_EQ(pl.exact, !fast);
    EXPECT_EQ(pl.bias_acc, func::promote_bias(pd.bias, dout));
  }
}

}  // namespace cbrain::test
