// DMA engine: moves blocks from DRAM into an on-chip buffer. The control
// unit overlaps DMA with compute via double buffering; the timing
// reconciliation is arch/phase_clock.hpp, and the executor prices each
// transfer with DramConfig::transfer_cycles_pattern.
#pragma once

#include <vector>

#include "cbrain/arch/config.hpp"
#include "cbrain/arch/dram.hpp"
#include "cbrain/arch/sram.hpp"

namespace cbrain {

class DmaEngine {
 public:
  explicit DmaEngine(DramConfig config) : config_(config) {}

  // DRAM -> SRAM; counts the SRAM writes. The executor times the
  // transfer from its instruction's access pattern.
  void load(const Dram& dram, DramAddr src, Sram16& dst, i64 dst_addr,
            i64 words);

  // Fault-injection hook: bursts may be corrupted in flight.
  // With CRC protection enabled (injector recovery != kNone) a corrupted
  // burst is re-read from DRAM and retransmitted with backoff, up to the
  // configured retry bound; the extra transfer time and retransmitted
  // words are charged through the injector's overhead accounting.
  void attach_fault(FaultInjector* injector) { fault_ = injector; }

 private:
  DramConfig config_;
  std::vector<std::int16_t> bounce_;  // staging for block moves
  FaultInjector* fault_ = nullptr;
};

}  // namespace cbrain
