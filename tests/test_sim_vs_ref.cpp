// THE load-bearing property test of this reproduction (DESIGN.md §5):
// for a sweep of convolution geometries and every parallelization scheme,
// the cycle-level simulator's output is bit-identical to the fixed-point
// reference executor, and its event counters are exactly the analytical
// model's. This proves Algorithm 1 (kernel partitioning), the improved
// inter-kernel accumulation (§4.2.2), the data-layout planning (§4.2.3)
// and the tiler are *correct*, not merely fast.
#include <algorithm>

#include "cbrain/simd/simd.hpp"
#include "support.hpp"

namespace cbrain::test {
namespace {

struct ConvCase {
  std::string name;
  MapDims in;
  ConvParams conv;
};

// Geometries chosen to hit every scheme branch and alignment edge:
// k==s, k>s dividing and non-dividing, k<s, 1x1, kernels larger than Tin,
// Din below/above Tin, non-multiple lane groups, grouped conv.
const ConvCase kCases[] = {
    {"alexconv1ish", {3, 19, 19}, {.dout = 8, .k = 5, .stride = 2}},
    {"pad1_k3", {3, 12, 12}, {.dout = 8, .k = 3, .stride = 1, .pad = 1}},
    {"deep_k3", {16, 8, 8}, {.dout = 20, .k = 3, .stride = 1, .pad = 1}},
    {"k_eq_s", {4, 12, 12}, {.dout = 6, .k = 2, .stride = 2}},
    {"k_eq_s3", {5, 9, 9}, {.dout = 7, .k = 3, .stride = 3}},
    {"one_by_one", {24, 6, 6}, {.dout = 10, .k = 1, .stride = 1}},
    {"k_gt_tin", {2, 17, 17}, {.dout = 5, .k = 7, .stride = 2}},
    {"k4_s3", {3, 13, 13}, {.dout = 6, .k = 4, .stride = 3}},
    {"k_lt_s", {6, 13, 13}, {.dout = 8, .k = 2, .stride = 3}},
    {"grouped", {4, 10, 10}, {.dout = 8, .k = 3, .stride = 1, .pad = 1,
                              .groups = 2}},
    {"no_relu", {3, 9, 9}, {.dout = 4, .k = 3, .stride = 2, .relu = false}},
    {"tall_kernel", {1, 23, 23}, {.dout = 3, .k = 11, .stride = 4}},
    {"rectangular", {3, 11, 17}, {.dout = 6, .k = 3, .stride = 2}},
    {"wide_input", {2, 7, 21}, {.dout = 5, .k = 5, .stride = 1, .pad = 2}},
};

const Policy kPolicies[] = {Policy::kFixedInter, Policy::kFixedIntra,
                            Policy::kFixedPartition, Policy::kAdaptive1,
                            Policy::kAdaptive2};

class ConvSweep
    : public ::testing::TestWithParam<std::tuple<int, Policy, bool>> {};

TEST_P(ConvSweep, SimMatchesRefAndModel) {
  const auto [case_idx, policy, tiny_buffers] = GetParam();
  const ConvCase& cc = kCases[case_idx];
  const Network net = zoo::single_conv(cc.in, cc.conv, cc.name);
  // Tin=4/Tout=4 with 4 KiB buffers forces band/din/dout tiling paths;
  // the default-size variant exercises the single-tile fast path.
  AcceleratorConfig config = tiny_config(4, 4);
  if (!tiny_buffers) config = AcceleratorConfig::with_pe(4, 4);

  const RunResult r = run_all(net, policy, config);
  const LayerId conv_id = net.conv_layer_ids().front();

  // 1. Functional equivalence: bit-exact against the golden executor.
  EXPECT_TRUE(tensors_equal(r.ref_out, r.sim.final_output));

  // 2. Counter equivalence: simulator == analytical model, per layer.
  expect_counters_match(r.sim.layer_total(conv_id),
                        r.model.layer(conv_id).counters, cc.name);

  // 3. Work conservation: active multiplier slots == the layer's MACs
  // plus partition's zero-padding overhead (never less).
  const i64 macs = net.layer(conv_id).macs();
  EXPECT_GE(r.model.layer(conv_id).counters.mul_ops, macs);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, ConvSweep,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kCases))),
                       ::testing::ValuesIn(kPolicies),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string n = kCases[std::get<0>(info.param)].name;
      n += "_";
      n += policy_name(std::get<1>(info.param));
      n += std::get<2>(info.param) ? "_tinybuf" : "_bigbuf";
      for (auto& ch : n)
        if (ch == '-' || ch == '+') ch = '_';
      return n;
    });

// Whole-network end-to-end: conv + pool + fc + softmax pipelines, DAG
// layout planning and host ops all in one pass.
class WholeNet : public ::testing::TestWithParam<Policy> {};

TEST_P(WholeNet, TinyCnnBitExact) {
  const Network net = zoo::tiny_cnn();
  const RunResult r = run_all(net, GetParam(), tiny_config(4, 4));
  EXPECT_TRUE(tensors_equal(r.ref_out, r.sim.final_output));
  for (const Layer& l : net.layers()) {
    if (l.kind == LayerKind::kInput) continue;
    expect_counters_match(r.sim.layer_total(l.id),
                          r.model.layer(l.id).counters, l.name);
  }
}

TEST_P(WholeNet, SchemeMixBitExact) {
  const Network net = zoo::scheme_mix_cnn();
  const RunResult r = run_all(net, GetParam(), tiny_config(4, 4));
  EXPECT_TRUE(tensors_equal(r.ref_out, r.sim.final_output));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, WholeNet, ::testing::ValuesIn(kPolicies),
                         [](const auto& info) {
                           std::string n = policy_name(info.param);
                           for (auto& ch : n)
                             if (ch == '-' || ch == '+') ch = '_';
                           return n;
                         });

// Every intermediate cube the simulator materializes equals the reference
// executor's corresponding activation (layer-by-layer localization of any
// failure the end-to-end checks would only see at the output).
TEST(SimIntermediates, TinyCnnLayerByLayer) {
  const Network net = zoo::tiny_cnn();
  const AcceleratorConfig config = tiny_config(4, 4);
  auto params = init_net_params<Fixed16>(net, 7);
  auto input = random_input<Fixed16>(net.layer(0).out_dims, 99);

  RefExecutor<Fixed16> ref(net, params);
  ref.run(input);

  auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  SimExecutor sim(net, compiled.value(), config);
  sim.run(input, params);

  for (const Layer& l : net.layers()) {
    if (l.kind == LayerKind::kInput || l.inputs.empty()) continue;
    SCOPED_TRACE(l.name);
    // What the layer consumed == what its producer(s) produced in ref.
    const Tensor3<Fixed16> consumed = sim.read_input_cube(l.id);
    const Tensor3<Fixed16>& expected =
        l.inputs.size() == 1
            ? ref.output(l.inputs[0])
            : ref.output(l.id);  // concat inputs land pre-assembled
    EXPECT_TRUE(tensors_equal(expected, consumed));
  }
}

// A conv tile whose weights break the deep-window contract must take the
// exact kernel. Every weight and every input word is -32768, so each
// pmaddwd pair sums to 2^31 and wraps int32: a tile wrongly sent to
// dot_s16_mrhs_dw would finalize a wrapped sum (an even number of wrapped
// pairs per lane cancels to 0) where the exact sum saturates. Every
// policy, with and without din chunking, must match the reference
// executor under every supported backend.
TEST(SimDeepWindow, ContractBreakingTileFallsBackToExactKernel) {
  struct RestoreBackend {
    simd::Backend saved = simd::active_backend();
    ~RestoreBackend() { simd::select_backend(saved); }
  } restore;
  const Network net = zoo::single_conv(
      {16, 6, 6}, {.dout = 6, .k = 4, .stride = 1}, "extreme");
  auto params = init_net_params<Fixed16>(net, 3);
  auto& weights =
      params.per_layer[static_cast<std::size_t>(net.conv_layer_ids().front())]
          .weights;
  std::fill(weights.storage().begin(), weights.storage().end(),
            Fixed16::from_raw(-32768));
  const i64 n = 16 * 4 * 4;
  std::vector<std::int16_t> row(static_cast<std::size_t>(n), -32768);
  ASSERT_FALSE(simd::deep_window_ok(row.data(), n, 1, n));
  Tensor3<Fixed16> input(net.layer(0).out_dims);
  input.fill(Fixed16::from_raw(-32768));
  RefExecutor<Fixed16> ref(net, params);
  const Tensor3<Fixed16> want = ref.run(input);

  for (const AcceleratorConfig& config :
       {AcceleratorConfig::with_pe(16, 16), tiny_config(4, 4)})
    for (const Policy policy : kPolicies) {
      SCOPED_TRACE(std::string(policy_name(policy)) + " tin " +
                   std::to_string(config.tin));
      auto compiled = compile_network(net, policy, config);
      ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
      for (const simd::Backend backend : simd::supported_backends()) {
        simd::select_backend(backend);
        SimExecutor sim(net, compiled.value(), config);
        EXPECT_TRUE(tensors_equal(want, sim.run(input, params).final_output))
            << simd::backend_name(backend);
      }
    }
}

}  // namespace
}  // namespace cbrain::test
