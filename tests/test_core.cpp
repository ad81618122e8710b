// CBrain facade tests: compilation caching, policy comparison semantics,
// report plumbing (Table/ExperimentLog).
#include <gtest/gtest.h>

#include "cbrain/core/cbrain.hpp"
#include "cbrain/report/experiment.hpp"
#include "cbrain/report/table.hpp"

#include "cbrain/nn/zoo.hpp"

namespace cbrain {
namespace {

TEST(CBrainFacade, CompileIsCached) {
  CBrain brain(AcceleratorConfig::paper_16_16());
  const Network net = zoo::tiny_cnn();
  const CompiledNetwork& a = brain.compile(net, Policy::kAdaptive2);
  const CompiledNetwork& b = brain.compile(net, Policy::kAdaptive2);
  EXPECT_EQ(&a, &b);
  const CompiledNetwork& c = brain.compile(net, Policy::kFixedInter);
  EXPECT_NE(&a, &c);
}

TEST(CBrainFacade, ComparePoliciesCoversPaperSet) {
  CBrain brain(AcceleratorConfig::paper_16_16());
  const PolicyComparison cmp = brain.compare_policies(zoo::tiny_cnn());
  EXPECT_EQ(cmp.results.size(), paper_policies().size());
  EXPECT_GT(cmp.ideal_cycles, 0);
  for (const auto& r : cmp.results)
    EXPECT_GE(r.cycles(), cmp.ideal_cycles * 9 / 10)
        << policy_name(r.policy);
  EXPECT_GT(cmp.speedup(Policy::kAdaptive2, Policy::kFixedInter), 0.99);
  EXPECT_THROW(cmp.by_policy(Policy::kIdeal), CheckError);
}

TEST(CBrainFacade, SimulateSeedPathMatchesExplicit) {
  CBrain brain(AcceleratorConfig::with_pe(4, 4));
  const Network net = zoo::tiny_cnn();
  const SimResult a = brain.simulate(net, Policy::kAdaptive2, 42);
  const auto params = init_net_params<Fixed16>(net, 42);
  const auto input =
      random_input<Fixed16>(net.layer(0).out_dims, 42 ^ 0x1234);
  const SimResult b = brain.simulate(net, Policy::kAdaptive2, input, params);
  EXPECT_TRUE(a.final_output.logically_equal(b.final_output));
}

TEST(CBrainFacade, EvaluateAgreesWithSimulateOnCycles) {
  CBrain brain(AcceleratorConfig::with_pe(4, 4));
  const Network net = zoo::scheme_mix_cnn();
  const NetworkModelResult model = brain.evaluate(net, Policy::kAdaptive2);
  const SimResult sim = brain.simulate(net, Policy::kAdaptive2, 7);
  for (const Layer& l : net.layers()) {
    if (l.kind == LayerKind::kInput) continue;
    EXPECT_EQ(model.layer(l.id).counters.total_cycles,
              sim.layer_total(l.id).total_cycles)
        << l.name;
  }
}

TEST(Core, ComparePoliciesIdealMatchesStandalone) {
  // compare_policies takes the ideal bound from its own adap-2 model (or
  // the cached adap-2 program when the list has none); it must equal the
  // bound ideal_network_cycles computes from a fresh compile.
  ModelOptions batched;
  batched.batch = 4;
  batched.include_fc = true;
  const std::vector<Network> nets = {
      zoo::alexnet(),       zoo::vgg16(),          zoo::googlenet(),
      zoo::nin(),           zoo::lenet5(),         zoo::zfnet(),
      zoo::squeezenet(),    zoo::resnet18(),       zoo::mobilenetv1(),
      zoo::tiny_cnn(),      zoo::scheme_mix_cnn(), zoo::mini_inception()};
  for (const AcceleratorConfig& cfg : {AcceleratorConfig::paper_16_16(),
                                       AcceleratorConfig::paper_32_32()})
    for (const ModelOptions& options : {ModelOptions{}, batched})
      for (const Network& net : nets) {
        const i64 ideal = ideal_network_cycles(net, cfg, options);
        EXPECT_EQ(CBrain(cfg, options).compare_policies(net).ideal_cycles,
                  ideal)
            << net.name() << " batch " << options.batch;
        // A fresh brain, so adap-2 is compiled by this comparison.
        const PolicyComparison inter_only = CBrain(cfg, options)
            .compare_policies(net, {Policy::kFixedInter});
        ASSERT_EQ(inter_only.results.size(), 1u);
        EXPECT_EQ(inter_only.ideal_cycles, ideal)
            << net.name() << " batch " << options.batch << " inter only";
      }
}

TEST(ReportTable, AlignmentAndCsv) {
  Table t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_rule();
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("------"), std::string::npos);
  const std::string csv = t.to_csv();
  EXPECT_EQ(csv, "name,value\nx,1\nlonger,22\n");
}

TEST(ReportExperiment, PaperVsMeasuredBlock) {
  ExperimentLog log("Fig.X", "demo");
  log.point("speedup", "5.8x", "5.2x", "geomean");
  const std::string s = log.to_string();
  EXPECT_NE(s.find("=== Fig.X — demo ==="), std::string::npos);
  EXPECT_NE(s.find("5.8x"), std::string::npos);
  EXPECT_NE(s.find("5.2x"), std::string::npos);
}

}  // namespace
}  // namespace cbrain
