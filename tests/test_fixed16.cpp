// Unit tests for the Q7.8 fixed-point datapath type: conversions,
// rounding (half away from zero), saturation, and the single-rounding
// accumulator contract.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "cbrain/common/math_util.hpp"
#include "cbrain/common/rng.hpp"
#include "cbrain/fixed/fixed16.hpp"

namespace cbrain {
namespace {

TEST(Fixed16, BasicConversions) {
  EXPECT_EQ(Fixed16::from_double(0.0).raw(), 0);
  EXPECT_EQ(Fixed16::from_double(1.0).raw(), 256);
  EXPECT_EQ(Fixed16::from_double(-1.0).raw(), -256);
  EXPECT_EQ(Fixed16::from_double(0.5).raw(), 128);
  EXPECT_DOUBLE_EQ(Fixed16::from_raw(384).to_double(), 1.5);
  EXPECT_FLOAT_EQ(Fixed16::from_raw(-64).to_float(), -0.25f);
}

TEST(Fixed16, RoundingHalfAwayFromZero) {
  // 0.5/256 steps: x.5 raw halves round away from zero.
  EXPECT_EQ(Fixed16::from_double(1.0 / 512.0).raw(), 1);    // 0.5 -> 1
  EXPECT_EQ(Fixed16::from_double(-1.0 / 512.0).raw(), -1);  // -0.5 -> -1
  EXPECT_EQ(Fixed16::from_double(0.9 / 512.0).raw(), 0);    // 0.45 -> 0
  EXPECT_EQ(Fixed16::from_double(1.1 / 512.0).raw(), 1);
}

TEST(Fixed16, Saturation) {
  EXPECT_EQ(Fixed16::from_double(1000.0), Fixed16::max());
  EXPECT_EQ(Fixed16::from_double(-1000.0), Fixed16::min());
  EXPECT_EQ(Fixed16::max().raw(), 32767);
  EXPECT_EQ(Fixed16::min().raw(), -32768);
  // NaN maps to zero rather than trapping.
  EXPECT_EQ(Fixed16::from_float(std::nanf("")).raw(), 0);
}

TEST(Fixed16, SaturatingArithmetic) {
  const Fixed16 big = Fixed16::from_double(120.0);
  EXPECT_EQ(big.sat_add(big), Fixed16::max());
  EXPECT_EQ(Fixed16::min().sat_sub(big), Fixed16::min());
  EXPECT_EQ(Fixed16::from_double(100.0).sat_mul(Fixed16::from_double(100.0)),
            Fixed16::max());
  EXPECT_EQ(Fixed16::from_double(2.0)
                .sat_mul(Fixed16::from_double(3.0))
                .to_double(),
            6.0);
}

TEST(Fixed16, AccumulatorIsExactUntilFinalRounding) {
  // 0.1 * 0.2 at Q7.8: raws 26 * 51 = 1326 (Q16.16); from_acc rounds once.
  const Fixed16 a = Fixed16::from_double(0.1);
  const Fixed16 b = Fixed16::from_double(0.2);
  EXPECT_EQ(a.mul_to_acc(b), i64{26} * 51);
  EXPECT_EQ(Fixed16::from_acc(a.mul_to_acc(b)).raw(), 5);  // 1326/256 -> 5.18
}

TEST(Fixed16, FromAccNegativeRounding) {
  EXPECT_EQ(Fixed16::from_acc(384).raw(), 2);     // 1.5 -> 2
  EXPECT_EQ(Fixed16::from_acc(-384).raw(), -2);   // -1.5 -> -2
  EXPECT_EQ(Fixed16::from_acc(383).raw(), 1);     // 1.496 -> 1
  EXPECT_EQ(Fixed16::from_acc(-383).raw(), -1);
  EXPECT_EQ(Fixed16::from_acc(0).raw(), 0);
}

TEST(Fixed16, FromAccSaturates) {
  EXPECT_EQ(Fixed16::from_acc(i64{1} << 40), Fixed16::max());
  EXPECT_EQ(Fixed16::from_acc(-(i64{1} << 40)), Fixed16::min());
}

TEST(Fixed16, Relu) {
  EXPECT_EQ(relu(Fixed16::from_double(-0.5)), Fixed16::zero());
  EXPECT_EQ(relu(Fixed16::from_double(0.5)).to_double(), 0.5);
  EXPECT_EQ(relu(Fixed16::zero()), Fixed16::zero());
}

// Property: accumulation order never changes the final value (the reason
// every parallelization scheme is bit-exact against the reference).
TEST(Fixed16, AccumulationOrderInvariance) {
  Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Fixed16> xs(64), ws(64);
    for (auto& v : xs) v = Fixed16::from_double(rng.next_double(-1, 1));
    for (auto& v : ws) v = Fixed16::from_double(rng.next_double(-1, 1));
    Fixed16::acc_t fwd = 0, rev = 0, strided = 0;
    for (std::size_t i = 0; i < xs.size(); ++i)
      fwd += xs[i].mul_to_acc(ws[i]);
    for (std::size_t i = xs.size(); i-- > 0;)
      rev += xs[i].mul_to_acc(ws[i]);
    for (std::size_t s = 0; s < 8; ++s)
      for (std::size_t i = s; i < xs.size(); i += 8)
        strided += xs[i].mul_to_acc(ws[i]);
    EXPECT_EQ(Fixed16::from_acc(fwd), Fixed16::from_acc(rev));
    EXPECT_EQ(Fixed16::from_acc(fwd), Fixed16::from_acc(strided));
  }
}

// Property: from_double(to_double(x)) is the identity on all raws.
TEST(Fixed16, RoundTripAllRaws) {
  for (i64 raw = -32768; raw <= 32767; ++raw) {
    const Fixed16 v = Fixed16::from_raw(static_cast<std::int16_t>(raw));
    EXPECT_EQ(Fixed16::from_double(v.to_double()), v) << raw;
  }
}

// The floor/ceil form from_double had before it went branch-free, kept
// as the reference: every synthesized weight and input goes through
// from_double, so any drift would change every output in the repo.
std::int16_t floor_ceil_reference(double v) {
  if (std::isnan(v)) return 0;
  const double scaled = v * Fixed16::kOne;
  const double rounded = scaled >= 0.0 ? std::floor(scaled + 0.5)
                                       : std::ceil(scaled - 0.5);
  if (rounded >= static_cast<double>(Fixed16::kRawMax))
    return Fixed16::kRawMax;
  if (rounded <= static_cast<double>(Fixed16::kRawMin))
    return Fixed16::kRawMin;
  return static_cast<std::int16_t>(rounded);
}

TEST(Fixed16, FromDoubleMatchesFloorCeilReference) {
  const double lsb = 1.0 / Fixed16::kOne;
  const double half = lsb / 2;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> edges = {
      0.0, -0.0, half, -half, 3 * half, -3 * half,
      std::nextafter(half, 0.0), std::nextafter(-half, 0.0),
      std::nextafter(half, 1.0), std::nextafter(-half, -1.0),
      // Largest double below 1/2 at raw scale: s + 0.5 rounds up to 1.0.
      0.49999999999999994 * lsb, -0.49999999999999994 * lsb,
      127.998, -127.998, 127.99609375, 127.998046875, -128.0, -128.002,
      -128.0 - half, -128.0 - lsb, 128.0, 1e300, -1e300, inf, -inf,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min()};
  // Every 97th raw's exact value and its two ties.
  for (int raw = -32768; raw <= 32767; raw += 97)
    for (const double d : {0.0, half, -half}) edges.push_back(raw * lsb + d);
  for (const double v : edges)
    EXPECT_EQ(Fixed16::from_double(v).raw(), floor_ceil_reference(v)) << v;

  Rng rng(7);
  i64 mismatches = 0;
  double first_bad = 0.0;
  for (int i = 0; i < 10'000'000; ++i) {
    const double v = rng.next_double(-300.0, 300.0);
    if (Fixed16::from_double(v).raw() != floor_ceil_reference(v) &&
        mismatches++ == 0)
      first_bad = v;
  }
  EXPECT_EQ(mismatches, 0) << "first mismatch at " << first_bad;
}

TEST(SaturateToI16, Bounds) {
  EXPECT_EQ(saturate_to_i16(32767), 32767);
  EXPECT_EQ(saturate_to_i16(32768), 32767);
  EXPECT_EQ(saturate_to_i16(-32768), -32768);
  EXPECT_EQ(saturate_to_i16(-32769), -32768);
  EXPECT_EQ(saturate_to_i16(0), 0);
}

}  // namespace
}  // namespace cbrain
