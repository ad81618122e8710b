// DMA engine: moves blocks between DRAM and an on-chip buffer, accounting
// transfer cycles from the DramConfig bandwidth/latency model. The control
// unit overlaps DMA with compute via double buffering; the timing
// reconciliation is arch/phase_clock.hpp, this class just meters each
// transfer.
#pragma once

#include <vector>

#include "cbrain/arch/config.hpp"
#include "cbrain/arch/dram.hpp"
#include "cbrain/arch/sram.hpp"

namespace cbrain {

struct DmaStats {
  i64 transfers = 0;
  i64 words_in = 0;  // DRAM -> buffer
  i64 busy_cycles = 0;
};

class DmaEngine {
 public:
  explicit DmaEngine(DramConfig config) : config_(config) {}

  // DRAM -> SRAM. Counts SRAM writes and DRAM words; returns cycles spent.
  i64 load(const Dram& dram, DramAddr src, Sram16& dst, i64 dst_addr,
           i64 words);

  const DmaStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  // Fault-injection hook: bursts may be corrupted or stalled in flight.
  // With CRC protection enabled (injector recovery != kNone) a corrupted
  // burst is re-read from DRAM and retransmitted with backoff, up to the
  // configured retry bound; the extra transfer time and retransmitted
  // words are charged through the injector's overhead accounting.
  void attach_fault(FaultInjector* injector) { fault_ = injector; }

 private:
  DramConfig config_;
  DmaStats stats_;
  std::vector<std::int16_t> bounce_;  // staging for block moves
  FaultInjector* fault_ = nullptr;
};

}  // namespace cbrain
