#pragma once

#include <algorithm>

#include "cbrain/common/math_util.hpp"

namespace cbrain {

// The double-buffer timing rule, the one copy the cycle simulator and the
// analytical model share: DMA queued since the last compute fills the idle
// halves of the on-chip buffers while the next compute phase runs, so a
// phase costs max(pending_dma, compute); serial work (host staging, fault
// recovery) follows it alone, and DMA with no compute left to hide behind
// drains in full. load() and retire() return the start cycle of the
// transfer or phase they add.
class PhaseClock {
 public:
  i64 load(i64 cycles) {
    const i64 start = now_ + pending_dma_;
    pending_dma_ += cycles;
    return start;
  }

  i64 retire(i64 compute, i64 serial) {
    const i64 start = now_;
    now_ += std::max(pending_dma_, compute) + serial;
    pending_dma_ = 0;
    return start;
  }

  i64 drain() { return retire(0, 0); }

  i64 now() const { return now_; }
  i64 pending_dma() const { return pending_dma_; }

 private:
  i64 now_ = 0;
  i64 pending_dma_ = 0;
};

}  // namespace cbrain
