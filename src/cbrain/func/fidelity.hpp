// Execution fidelity: which machine runs a compiled network.
//
//   kCycle      — the sim/ cycle-level machine: every MAC happens on
//                 simulated buffer contents, counters are exact. The
//                 oracle tier.
//   kFunctional — the func/ executor: the same fixed-point arithmetic as
//                 im2col + blocked GEMM on host memory, bit-identical
//                 outputs, with cycle/energy *estimates* sourced from the
//                 analytical model. The serving tier.
//
// Fidelity is part of the engine's compile-cache key (DESIGN.md §12): a
// program fetched for one tier is never silently served to the other, so
// per-tier cache hit/miss stats stay meaningful and a future tier with a
// genuinely different compilation cannot alias.
#pragma once

#include <optional>
#include <string>

namespace cbrain {

enum class Fidelity { kCycle = 0, kFunctional = 1 };

inline const char* fidelity_name(Fidelity f) {
  return f == Fidelity::kFunctional ? "functional" : "cycle";
}

inline std::optional<Fidelity> parse_fidelity(const std::string& s) {
  if (s == "cycle") return Fidelity::kCycle;
  if (s == "functional") return Fidelity::kFunctional;
  return std::nullopt;
}

}  // namespace cbrain
