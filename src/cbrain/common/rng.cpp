#include "cbrain/common/rng.hpp"

#include "cbrain/common/check.hpp"

namespace cbrain {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(std::uint64_t seed) {
  // Seed expansion via splitmix64, the recommended initialization for
  // xoshiro generators (avoids all-zero and low-entropy states).
  for (auto& s : s_) s = splitmix64(seed);
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  CBRAIN_CHECK(bound > 0, "next_below(0)");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t v;
  do {
    v = next_u64();
  } while (v >= limit);
  return v % bound;
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  CBRAIN_CHECK(lo <= hi, "next_int range inverted");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(span == 0 ? next_u64()
                                                  : next_below(span));
}

}  // namespace cbrain
