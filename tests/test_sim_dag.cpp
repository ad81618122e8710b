// Simulator tests on DAG topologies: the mini-inception module exercises
// multi-consumer stores, concat depth offsets and mixed schemes in one
// functional run, validated bit-exactly against the reference.
#include "support.hpp"

namespace cbrain::test {
namespace {

class DagSim : public ::testing::TestWithParam<Policy> {};

TEST_P(DagSim, MiniInceptionBitExact) {
  const Network net = zoo::mini_inception();
  const RunResult r = run_all(net, GetParam(), tiny_config(4, 4));
  EXPECT_TRUE(tensors_equal(r.ref_out, r.sim.final_output));
  for (const Layer& l : net.layers()) {
    if (l.kind == LayerKind::kInput || l.kind == LayerKind::kConcat)
      continue;
    expect_counters_match(r.sim.layer_total(l.id),
                          r.model.layer(l.id).counters, l.name);
  }
}

TEST_P(DagSim, MiniInceptionAtPaperWidth) {
  // Lane counts exceeding every branch depth: exercises partial lane
  // groups everywhere.
  const Network net = zoo::mini_inception();
  const RunResult r =
      run_all(net, GetParam(), AcceleratorConfig::paper_16_16());
  EXPECT_TRUE(tensors_equal(r.ref_out, r.sim.final_output));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, DagSim,
                         ::testing::ValuesIn(std::vector<Policy>{
                             Policy::kFixedInter, Policy::kFixedIntra,
                             Policy::kFixedPartition, Policy::kAdaptive1,
                             Policy::kAdaptive2}),
                         [](const auto& info) {
                           std::string n = policy_name(info.param);
                           for (auto& ch : n)
                             if (ch == '-' || ch == '+') ch = '_';
                           return n;
                         });

// The concat cube the head layer consumes equals the reference concat
// output — every branch landed at its depth offset.
TEST(DagSim, ConcatAssemblyIsCorrect) {
  const Network net = zoo::mini_inception();
  const AcceleratorConfig config = tiny_config(4, 4);
  const auto params = init_net_params<Fixed16>(net, 13);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 14);

  RefExecutor<Fixed16> ref(net, params);
  ref.run(input);

  const auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  SimExecutor sim(net, compiled.value(), config);
  sim.run(input, params);

  LayerId head = -1, concat = -1;
  for (const Layer& l : net.layers()) {
    if (l.name == "head") head = l.id;
    if (l.name == "concat") concat = l.id;
  }
  ASSERT_GE(head, 0);
  const Tensor3<Fixed16> consumed = sim.read_input_cube(head);
  EXPECT_TRUE(tensors_equal(ref.output(concat), consumed));
}

// A producer with several consumers must deliver identical data to each
// cube (in each consumer's own order/padding).
TEST(DagSim, MultiConsumerCubesAgree) {
  const Network net = zoo::mini_inception();
  const AcceleratorConfig config = tiny_config(4, 4);
  const auto params = init_net_params<Fixed16>(net, 23);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 24);

  RefExecutor<Fixed16> ref(net, params);
  ref.run(input);
  const auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  SimExecutor sim(net, compiled.value(), config);
  sim.run(input, params);

  LayerId stem = -1;
  for (const Layer& l : net.layers())
    if (l.name == "stem") stem = l.id;
  const Tensor3<Fixed16>& stem_out = ref.output(stem);
  for (const Layer& l : net.layers()) {
    if (l.inputs.size() == 1 && l.inputs[0] == stem) {
      SCOPED_TRACE(l.name);
      EXPECT_TRUE(tensors_equal(stem_out, sim.read_input_cube(l.id)));
    }
  }
}

}  // namespace
}  // namespace cbrain::test
