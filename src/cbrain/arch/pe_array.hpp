// PE array model: Tout adder trees fed by Tin multipliers each ("16-16
// stands for ... 256 multipliers and 16 adder trees, each with 16
// adders"). The cycle-level simulator computes the arithmetic in its
// value pass and announces the operations here in batches; this class
// owns the utilization accounting that §4.1.1's under-utilization
// argument rests on.
#pragma once

#include "cbrain/arch/config.hpp"
#include "cbrain/fault/fault.hpp"

namespace cbrain {

struct PEStats {
  i64 ops = 0;             // issued PE operations (1 busy cycle each)
  i64 mul_ops = 0;         // multiplier slots doing useful work
  i64 idle_mul_slots = 0;  // slots idle during busy cycles
  i64 add_ops = 0;         // adder-tree + accumulate additions
};

class PEArray {
 public:
  explicit PEArray(const AcceleratorConfig& config) : config_(config) {}

  // Announce `ops` PE operations totalling `active_mul_slots` useful
  // multiplier slots; the remaining (ops*Tin*Tout - active_mul_slots)
  // slots burn idle energy. The executor announces a whole window sweep
  // at once — the aggregate equals per-op announcements.
  void begin_ops(i64 ops, i64 active_mul_slots);

  // Batched accounting for the multiply-accumulate work the executor's
  // value pass computed (n muls and n-1 tree adds per n-term dot).
  void count_mac(i64 muls, i64 adds) {
    stats_.mul_ops += muls;
    stats_.add_ops += adds;
  }

  // One extra addition (e.g. the §4.2.2 "add-and-store" accumulate).
  void count_add(i64 n = 1) { stats_.add_ops += n; }

  const PEStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  // Fault-injection hook: begin_ops advances the kPeLane fault
  // countdown by the issued operation count — a fire latches a stuck
  // multiplier lane that the executor applies to finalized outputs.
  void attach_fault(FaultInjector* injector) { fault_ = injector; }

 private:
  const AcceleratorConfig& config_;
  PEStats stats_;
  FaultInjector* fault_ = nullptr;
};

}  // namespace cbrain
