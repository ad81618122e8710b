// Tests for the beyond-the-paper zoo networks, including functional
// simulation of LeNet-5 (small enough to run cycle-accurately) and
// adaptive mapping sanity on SqueezeNet's fire-module DAG.
#include "support.hpp"

namespace cbrain::test {
namespace {

TEST(ZooExtra, ShapesAndStructure) {
  const Network lenet = zoo::lenet5();
  EXPECT_TRUE(lenet.validate().is_ok());
  EXPECT_EQ(lenet.layer(5).out_dims, (MapDims{120, 1, 1}));  // c5

  const Network zf = zoo::zfnet();
  EXPECT_TRUE(zf.validate().is_ok());
  EXPECT_EQ(zf.conv_layer_ids().size(), 5u);
  EXPECT_EQ(zf.layer(zf.conv_layer_ids().front()).out_dims.h, 109);

  const Network sq = zoo::squeezenet();
  EXPECT_TRUE(sq.validate().is_ok());
  // 1 stem + 8 fires x 3 + conv10 = 26 convolutions.
  EXPECT_EQ(sq.conv_layer_ids().size(), 26u);
  // fire2 output depth = 64 + 64.
  for (const Layer& l : sq.layers()) {
    if (l.name == "fire2/concat") {
      EXPECT_EQ(l.out_dims.d, 128);
    }
  }
}

TEST(ZooExtra, LeNet5FunctionalBitExact) {
  const Network net = zoo::lenet5();
  for (Policy p : {Policy::kFixedInter, Policy::kAdaptive2}) {
    const RunResult r = run_all(net, p, AcceleratorConfig::with_pe(8, 8));
    EXPECT_TRUE(tensors_equal(r.ref_out, r.sim.final_output))
        << policy_name(p);
  }
}

TEST(ZooExtra, SqueezeNetAdaptiveMapping) {
  // Fire modules are deep 1x1/3x3 layers -> improved inter everywhere
  // except the shallow 7x7 s=2 stem (partition).
  const Network net = zoo::squeezenet();
  const auto r =
      model_network(net, Policy::kAdaptive2, AcceleratorConfig::paper_16_16());
  for (const auto& lr : r.layers) {
    if (lr.kind != LayerKind::kConv) continue;
    if (lr.name == "conv1")
      EXPECT_EQ(lr.scheme, Scheme::kPartition);
    else
      EXPECT_EQ(lr.scheme, Scheme::kInterImproved) << lr.name;
  }
  // And adaptive still beats fixed inter on this concat-heavy DAG.
  const auto inter =
      model_network(net, Policy::kFixedInter, AcceleratorConfig::paper_16_16());
  EXPECT_LT(r.cycles(), inter.cycles());
}

TEST(ZooExtra, ZfnetFrontEndBetweenAlexAndGoogle) {
  // ZFNet's (7,2) conv1 partitions into 4x4 sub-kernels of 2x2.
  const PartitionSpec s = PartitionSpec::from(7, 2);
  EXPECT_EQ(s.g, 4);
  EXPECT_EQ(s.ks, 2);
  const Network net = zoo::zfnet();
  const auto r =
      model_network(net, Policy::kAdaptive2, AcceleratorConfig::paper_16_16());
  const auto inter =
      model_network(net, Policy::kFixedInter, AcceleratorConfig::paper_16_16());
  EXPECT_LT(r.cycles(), inter.cycles());
}

}  // namespace
}  // namespace cbrain::test
