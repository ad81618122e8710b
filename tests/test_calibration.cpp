// Quantization calibration tests: Q-format recommendation arithmetic,
// range profiling, and the SQNR measurement that substantiates the
// paper's 16-bit fixed-point choice.
#include <gtest/gtest.h>

#include "cbrain/fixed/calibration.hpp"
#include "cbrain/nn/zoo.hpp"

namespace cbrain {
namespace {

TEST(Calibration, RecommendFracBits) {
  // |x| < 1 -> all 15 non-sign bits can be fraction.
  EXPECT_EQ(recommend_frac_bits(0.5), 15);
  EXPECT_EQ(recommend_frac_bits(0.999), 15);
  // 1 <= |x| < 2 -> one integer bit.
  EXPECT_EQ(recommend_frac_bits(1.0), 14);
  EXPECT_EQ(recommend_frac_bits(1.9), 14);
  // Q7.8 covers |x| < 128.
  EXPECT_EQ(recommend_frac_bits(127.0), 8);
  EXPECT_EQ(recommend_frac_bits(128.0), 7);
  // Extremes clamp.
  EXPECT_EQ(recommend_frac_bits(1e9), 0);
  EXPECT_EQ(recommend_frac_bits(0.0), 15);
}

TEST(Calibration, ProfileCoversEveryLayer) {
  const Network net = zoo::tiny_cnn();
  const RangeProfile p = profile_activation_ranges(net, 11);
  ASSERT_EQ(static_cast<i64>(p.layers.size()), net.size());
  for (const LayerRangeStats& s : p.layers) {
    EXPECT_LE(s.min_value, s.max_value) << s.name;
    EXPECT_GE(s.mean_abs, 0.0);
    EXPECT_GE(s.recommended_frac_bits, 0);
    EXPECT_LE(s.recommended_frac_bits, 15);
  }
  // ReLU layers never go negative.
  for (const LayerRangeStats& s : p.layers) {
    if (s.name == "conv1") {
      EXPECT_GE(s.min_value, 0.0);
    }
  }
}

TEST(Calibration, ProfileIsDeterministic) {
  const Network net = zoo::lenet5();
  const RangeProfile a = profile_activation_ranges(net, 3);
  const RangeProfile b = profile_activation_ranges(net, 3);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].max_value, b.layers[i].max_value);
    EXPECT_EQ(a.layers[i].min_value, b.layers[i].min_value);
  }
}

TEST(Calibration, OutputSqnrIsUsable) {
  // Q7.8 on fan-in-scaled synthetic nets: the output stays tens of dB
  // clean even when deep mid-layers brush the quantization floor.
  for (const Network& net : {zoo::tiny_cnn(), zoo::lenet5()}) {
    const SqnrReport r = measure_sqnr(net, 17);
    ASSERT_FALSE(r.layers.empty());
    for (const LayerSqnr& l : r.layers)
      EXPECT_GT(l.sqnr_db, 0.0) << net.name() << " " << l.name;
    EXPECT_GT(r.output_sqnr_db, 15.0) << net.name();
  }
}

TEST(Calibration, BetterConditionedWeightsRaiseSqnr) {
  // With weights scaled so activations sit well inside Q7.8's dynamic
  // range (instead of near its floor), every layer's SQNR improves — the
  // quantitative case for per-layer Q formats.
  const Network net = zoo::tiny_cnn();
  const SqnrReport tiny_acts = measure_sqnr(net, 23, /*weight_scale=*/0.0);
  const SqnrReport scaled = measure_sqnr(net, 23, /*weight_scale=*/0.12);
  double worst_default = 1e9, worst_scaled = 1e9;
  for (const LayerSqnr& l : tiny_acts.layers)
    worst_default = std::min(worst_default, l.sqnr_db);
  for (const LayerSqnr& l : scaled.layers)
    worst_scaled = std::min(worst_scaled, l.sqnr_db);
  EXPECT_GT(worst_scaled, worst_default);
  EXPECT_GT(worst_scaled, 25.0);
}

}  // namespace
}  // namespace cbrain
