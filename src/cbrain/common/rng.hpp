// Deterministic pseudo-random source (xoshiro256**). Every experiment in
// the repo derives its data from an explicit seed so runs are reproducible
// bit-for-bit; std::mt19937 is avoided because its distributions are not
// specified identically across standard libraries.
#pragma once

#include <cstdint>

namespace cbrain {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

  // Inline: parameter synthesis draws one value per weight (tens of
  // millions per zoo net), so a call per draw would dominate setup.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Uniform in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound);

  // Uniform in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  // Uniform in [0, 1): the 53 high bits at full double precision.
  double next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  // Uniform in [lo, hi).
  double next_double(double lo, double hi) {
    return lo + (hi - lo) * next_double();
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace cbrain
