// 16-bit fixed-point numerics for the accelerator datapath.
//
// The paper's PE uses 16-bit fixed-point operands (Table 3, validated
// against DianNao's precision study). We use the Q7.8 interpretation — one
// sign bit, 7 integer bits, 8 fraction bits — which covers typical
// activation/weight ranges after per-layer scaling.
//
// Partial sums are held in wider accumulators (acc_t) with NO intermediate
// rounding or saturation. This mirrors a real NBout-style output buffer
// that keeps partials at extended precision, and it is what makes every
// parallelization scheme produce bit-identical results regardless of the
// order in which partial sums are accumulated (integer addition is
// associative and commutative).
#pragma once

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

namespace cbrain {

class Fixed16 {
 public:
  using raw_t = std::int16_t;
  // Wide accumulator for sums of products of raws (Q16.16-scaled).
  using acc_t = std::int64_t;

  static constexpr int kFracBits = 8;
  static constexpr std::int32_t kOne = 1 << kFracBits;  // raw value of 1.0
  static constexpr raw_t kRawMax = std::numeric_limits<raw_t>::max();
  static constexpr raw_t kRawMin = std::numeric_limits<raw_t>::min();

  constexpr Fixed16() = default;

  static constexpr Fixed16 from_raw(raw_t raw) { return Fixed16(raw); }

  // Round-to-nearest (half away from zero), saturating; NaN maps to 0.
  static Fixed16 from_float(float v);
  // Inline and branch-free: parameter synthesis converts one draw per
  // weight. Exactly floor(s + 0.5) for s >= 0 and ceil(s - 0.5) for
  // s < 0: the adjusted value has the sign of s, so truncation rounds it
  // the way floor/ceil would, and the clamp saturates before the int32
  // cast can overflow (DESIGN.md §17).
  static Fixed16 from_double(double v) {
    if (std::isnan(v)) return zero();
    const double scaled = v * kOne;
    const double adj = std::clamp(scaled + std::copysign(0.5, scaled),
                                  static_cast<double>(kRawMin),
                                  static_cast<double>(kRawMax));
    return from_raw(static_cast<raw_t>(static_cast<std::int32_t>(adj)));
  }

  constexpr raw_t raw() const { return raw_; }
  // Inline: the scalar LRN, avg-pool and softmax loops convert every
  // element. Division by a power of two is exact, so these are the same
  // values as raw * 2^-8.
  constexpr float to_float() const {
    return static_cast<float>(raw_) / static_cast<float>(kOne);
  }
  constexpr double to_double() const {
    return static_cast<double>(raw_) / static_cast<double>(kOne);
  }

  static constexpr Fixed16 max() { return Fixed16(kRawMax); }
  static constexpr Fixed16 min() { return Fixed16(kRawMin); }
  static constexpr Fixed16 zero() { return Fixed16(0); }

  // Saturating arithmetic — the datapath behaviour of the activation /
  // post-processing stage.
  Fixed16 sat_add(Fixed16 other) const;
  Fixed16 sat_sub(Fixed16 other) const;
  Fixed16 sat_mul(Fixed16 other) const;

  // Exact product at accumulator scale (Q16.16): never loses bits.
  constexpr acc_t mul_to_acc(Fixed16 other) const {
    return static_cast<acc_t>(raw_) * static_cast<acc_t>(other.raw_);
  }

  // Converts an accumulator (sum of mul_to_acc products) back to Q7.8 with
  // round-half-away-from-zero and saturation. This is the single rounding
  // point of a convolution, applied once after all partials are summed.
  static Fixed16 from_acc(acc_t acc);

  constexpr bool operator==(const Fixed16&) const = default;
  constexpr auto operator<=>(const Fixed16&) const = default;

 private:
  explicit constexpr Fixed16(raw_t raw) : raw_(raw) {}
  raw_t raw_ = 0;
};

// Saturates a wide integer to the int16 raw range.
std::int16_t saturate_to_i16(std::int64_t v);

// ReLU on raw fixed values (max(0, x)): the accelerator's default
// activation function unit.
inline Fixed16 relu(Fixed16 v) {
  return v.raw() < 0 ? Fixed16::zero() : v;
}

}  // namespace cbrain
