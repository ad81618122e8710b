// Scheme selection (Algorithm 2 / Table 1), Equation 2 partitioning, and
// the per-network scheme assignments the adaptive policy produces.
#include <gtest/gtest.h>

#include "cbrain/compiler/adaptive.hpp"
#include "cbrain/nn/zoo.hpp"

namespace cbrain {
namespace {

TEST(PartitionSpec, Equation2PaperExample) {
  // Fig. 5: AlexNet conv1, k=11 s=4 -> g=3 pieces of ks=4 (padded to 12).
  const PartitionSpec s = PartitionSpec::from(11, 4);
  EXPECT_EQ(s.g, 3);
  EXPECT_EQ(s.ks, 4);
  EXPECT_EQ(s.pieces(), 9);
  EXPECT_EQ(s.padded_k(), 12);
  EXPECT_EQ(s.sub_words(), 16);
}

TEST(PartitionSpec, MoreGeometries) {
  // GoogLeNet conv1: k=7 s=2 -> g=4, ks=2.
  EXPECT_EQ(PartitionSpec::from(7, 2).g, 4);
  EXPECT_EQ(PartitionSpec::from(7, 2).ks, 2);
  // Stride 1: g = k, 1x1 sub-kernels.
  EXPECT_EQ(PartitionSpec::from(5, 1).g, 5);
  EXPECT_EQ(PartitionSpec::from(5, 1).ks, 1);
  // k == s and k < s degenerate to a single piece (sliding window).
  EXPECT_EQ(PartitionSpec::from(3, 3).g, 1);
  EXPECT_EQ(PartitionSpec::from(3, 3).ks, 3);
  EXPECT_EQ(PartitionSpec::from(2, 5).g, 1);
  EXPECT_EQ(PartitionSpec::from(2, 5).ks, 2);
  EXPECT_THROW(PartitionSpec::from(0, 1), CheckError);
}

TEST(Algorithm2, SelectionRules) {
  // Line 1: k == s and k != 1 -> intra (sliding).
  EXPECT_EQ(select_scheme_adaptive(2, 2, 64, 16, true),
            Scheme::kIntraSliding);
  // k == s == 1 is NOT intra (falls through).
  EXPECT_EQ(select_scheme_adaptive(1, 1, 64, 16, true),
            Scheme::kInterImproved);
  // Line 2: Din < Tin -> partition.
  EXPECT_EQ(select_scheme_adaptive(11, 4, 3, 16, true), Scheme::kPartition);
  EXPECT_EQ(select_scheme_adaptive(3, 1, 15, 16, false),
            Scheme::kPartition);
  // Line 3: inter (classic for adap-1, improved for adap-2).
  EXPECT_EQ(select_scheme_adaptive(3, 1, 256, 16, false), Scheme::kInter);
  EXPECT_EQ(select_scheme_adaptive(3, 1, 256, 16, true),
            Scheme::kInterImproved);
}

TEST(Algorithm2, DataOrderRule) {
  // Lines 4-5: inter consumers want depth-major ("inter-order"), the
  // others spatial-major ("intra-order").
  EXPECT_EQ(scheme_input_order(Scheme::kInter), DataOrder::kDepthMajor);
  EXPECT_EQ(scheme_input_order(Scheme::kInterImproved),
            DataOrder::kDepthMajor);
  EXPECT_EQ(scheme_input_order(Scheme::kPartition),
            DataOrder::kSpatialMajor);
  EXPECT_EQ(scheme_input_order(Scheme::kIntraSliding),
            DataOrder::kSpatialMajor);
  EXPECT_EQ(scheme_input_order(Scheme::kIntraUnroll),
            DataOrder::kSpatialMajor);
}

TEST(Policies, FixedIntraPicksSlidingOnlyWhenLegal) {
  EXPECT_EQ(scheme_for_policy(Policy::kFixedIntra, 2, 2, 64, 16),
            Scheme::kIntraSliding);
  EXPECT_EQ(scheme_for_policy(Policy::kFixedIntra, 11, 4, 3, 16),
            Scheme::kIntraUnroll);
  EXPECT_EQ(scheme_for_policy(Policy::kFixedPartition, 3, 1, 256, 16),
            Scheme::kPartition);
  EXPECT_EQ(scheme_for_policy(Policy::kFixedInter, 11, 4, 3, 16),
            Scheme::kInter);
}

TEST(AdaptiveAssignment, AlexNet) {
  const Network net = zoo::alexnet();
  const auto schemes =
      assign_schemes(net, Policy::kAdaptive2, AcceleratorConfig::paper_16_16());
  // conv1: Din=3 < 16 -> partition; conv2-5: deep (48..256 per group).
  for (const Layer& l : net.layers()) {
    if (!l.is_conv()) continue;
    const Scheme s = schemes[static_cast<std::size_t>(l.id)];
    if (l.name == "conv1")
      EXPECT_EQ(s, Scheme::kPartition) << l.name;
    else
      EXPECT_EQ(s, Scheme::kInterImproved) << l.name;
  }
}

TEST(AdaptiveAssignment, GoogLeNet1x1StaysInter) {
  // All 1x1 convs have k == s == 1 and deep inputs: Algorithm 2 line 1's
  // "k != 1" guard must route them to inter, not sliding-window intra.
  const Network net = zoo::googlenet();
  const auto schemes =
      assign_schemes(net, Policy::kAdaptive1, AcceleratorConfig::paper_16_16());
  int partitions = 0;
  for (const Layer& l : net.layers()) {
    if (!l.is_conv()) continue;
    const Scheme s = schemes[static_cast<std::size_t>(l.id)];
    if (l.conv().k == 1) {
      EXPECT_EQ(s, Scheme::kInter) << l.name;
    }
    if (s == Scheme::kPartition) ++partitions;
  }
  EXPECT_EQ(partitions, 1);  // only conv1 (Din=3)
}

TEST(AdaptiveAssignment, SchemeMixHitsAllThreeBranches) {
  const Network net = zoo::scheme_mix_cnn();
  const auto schemes =
      assign_schemes(net, Policy::kAdaptive2, AcceleratorConfig::paper_16_16());
  std::set<Scheme> seen;
  for (const Layer& l : net.layers())
    if (l.is_conv()) seen.insert(schemes[static_cast<std::size_t>(l.id)]);
  EXPECT_TRUE(seen.count(Scheme::kPartition));
  EXPECT_TRUE(seen.count(Scheme::kIntraSliding));
  EXPECT_TRUE(seen.count(Scheme::kInterImproved));
}

TEST(Names, AllEnumeratorsNamed) {
  EXPECT_STREQ(scheme_name(Scheme::kInter), "inter");
  EXPECT_STREQ(scheme_name(Scheme::kInterImproved), "inter+");
  EXPECT_STREQ(scheme_name(Scheme::kIntraUnroll), "intra-unroll");
  EXPECT_STREQ(scheme_name(Scheme::kIntraSliding), "intra-sliding");
  EXPECT_STREQ(scheme_name(Scheme::kPartition), "partition");
  EXPECT_STREQ(policy_name(Policy::kAdaptive2), "adap-2");
  EXPECT_STREQ(policy_name(Policy::kIdeal), "ideal");
}

}  // namespace
}  // namespace cbrain
