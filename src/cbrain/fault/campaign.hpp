// Fault campaigns: sweep (network × site × rate × recovery) points, each
// running the cycle-level simulator twice — once fault-free as the golden
// reference, once with a seeded FaultInjector attached — and report the
// end-to-end damage (output corruption) against the cost of protection
// (detection/correction cycles and code-word energy). Points are
// independent, so the campaign fans out through cbrain::parallel and
// prints byte-identical tables at any --jobs.
#pragma once

#include <string>
#include <vector>

#include "cbrain/arch/energy_model.hpp"
#include "cbrain/compiler/compiler.hpp"
#include "cbrain/fault/fault.hpp"
#include "cbrain/report/table.hpp"

namespace cbrain {

// One grid point of a campaign.
struct FaultPointSpec {
  FaultSite site = FaultSite::kInputSram;
  double rate_per_mword = 0.0;  // expected faults per million words touched
  RecoveryPolicy recovery = RecoveryPolicy::kNone;
  u64 seed = 1;  // injector seed (already mixed per point by the campaign)
};

struct FaultPointResult {
  std::string net;
  FaultPointSpec spec;
  std::vector<CompileFallback> fallbacks;
  FaultStats stats;
  std::vector<FaultEvent> events;  // at most kMaxLoggedEvents
  i64 dropped_events = 0;          // injected past the log cap

  i64 baseline_cycles = 0;
  i64 faulty_cycles = 0;
  double baseline_pj = 0.0;
  double faulty_pj = 0.0;  // includes detection/correction code traffic

  i64 outputs = 0;             // elements in the final output cube
  i64 mismatched_outputs = 0;  // vs the fault-free run
  double max_abs_err = 0.0;

  double cycle_overhead() const;   // (faulty - baseline) / baseline
  double energy_overhead() const;  // (faulty - baseline) / baseline
};

// Runs one campaign point on `net`. Compiles resiliently (scheme
// fallbacks are recorded in the result), runs the fault-free reference
// and the injected run on identical inputs/parameters, and prices the
// injector's code-word traffic and retry re-reads with `energy`.
// Fails only when no scheme fits the configured buffers.
Result<FaultPointResult> run_fault_point(const Network& net, Policy policy,
                                         const AcceleratorConfig& config,
                                         const FaultPointSpec& spec,
                                         const EnergyParams& energy = {});

// The full grid: nets × sites × rates × recoveries, per-point seeds
// mixed deterministically from `seed`. Points run through
// cbrain::parallel in grid order; results come back in that same order
// regardless of worker count.
struct CampaignSpec {
  std::vector<Network> nets;
  Policy policy = Policy::kAdaptive2;
  AcceleratorConfig config;
  std::vector<FaultSite> sites;
  std::vector<double> rates_per_mword;
  std::vector<RecoveryPolicy> recoveries;
  u64 seed = 1;
  EnergyParams energy;
};

Result<std::vector<FaultPointResult>> run_fault_campaign(
    const CampaignSpec& spec);

// Renders campaign points as the standard report table (deterministic
// formatting: same points ⇒ same bytes).
Table campaign_table(const std::vector<FaultPointResult>& points);

}  // namespace cbrain
