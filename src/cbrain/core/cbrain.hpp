// CBrain: the top-level public API of this library. A downstream user
// builds (or picks from the zoo) a Network, constructs a CBrain with an
// AcceleratorConfig, and then either
//
//   * evaluate(net, policy)      — fast analytical modeling (cycles,
//                                  traffic, energy) for design-space
//                                  exploration at any network scale, or
//   * simulate(net, policy, in)  — cycle-level functional simulation that
//                                  returns the actual fixed-point output
//                                  tensor plus the same counters, or
//   * compare_policies(net)      — the paper's core experiment: one row
//                                  per policy, plus the ideal bound.
//
// Compiled programs are cached in a thread-safe engine::Engine cache keyed
// by a structural hash of (network topology, config, policy) — never by
// name. For serving many inferences against resident weights, use the
// engine() directly (open_session / run_batches); simulate() is the one-shot
// convenience over the same path.
#pragma once

#include <memory>

#include "cbrain/engine/engine.hpp"
#include "cbrain/model/network_model.hpp"
#include "cbrain/ref/params.hpp"
#include "cbrain/sim/executor.hpp"

namespace cbrain {

struct PolicyComparison {
  i64 ideal_cycles = 0;
  std::vector<NetworkModelResult> results;  // one per requested policy

  const NetworkModelResult& by_policy(Policy p) const;
  // Speedup of `a` relative to `b` (cycles_b / cycles_a).
  double speedup(Policy a, Policy b) const;
};

class CBrain {
 public:
  explicit CBrain(AcceleratorConfig config, ModelOptions options = {})
      : engine_(std::move(config)), options_(std::move(options)) {}

  const AcceleratorConfig& config() const { return engine_.config(); }
  const ModelOptions& options() const { return options_; }

  // The serving layer underneath: weight-resident sessions, batched
  // concurrent runs, and the shared compile cache.
  engine::Engine& engine() { return engine_; }

  // Compile (cached) — exposed for inspection/disassembly. The reference
  // stays valid for the CBrain's lifetime (the cache never evicts).
  const CompiledNetwork& compile(const Network& net, Policy policy);

  // Analytical evaluation.
  NetworkModelResult evaluate(const Network& net, Policy policy);

  // One-shot inference with explicit parameters and input: load_params
  // once, infer once. Fidelity::kCycle runs the cycle-level simulator;
  // Fidelity::kFunctional runs the fast tier — same output bytes, model
  // counter estimates (DESIGN.md §12).
  SimResult simulate(const Network& net, Policy policy,
                     const Tensor3<Fixed16>& input,
                     const NetParamsData<Fixed16>& params,
                     Fidelity fidelity = Fidelity::kCycle);

  // Convenience: seeded parameters/input.
  SimResult simulate(const Network& net, Policy policy,
                     std::uint64_t seed = 42,
                     Fidelity fidelity = Fidelity::kCycle);

  // Evaluates every given policy (defaults to the paper's five).
  PolicyComparison compare_policies(const Network& net);
  PolicyComparison compare_policies(const Network& net,
                                    const std::vector<Policy>& policies);

 private:
  engine::Engine engine_;
  ModelOptions options_;
};

// The five policies of the paper's Figs. 8/10 in presentation order.
const std::vector<Policy>& paper_policies();

}  // namespace cbrain
