// External memory model: a flat 16-bit-word space. The compiler's layout
// planner places every cube; timing lives in DmaEngine; this class is the
// storage. The functional simulator keeps whole networks' activations and
// weights here, exactly as the paper's host injects "raw image data and
// weights of the pre-trained model" into external memory.
#pragma once

#include <cstdint>
#include <vector>

#include "cbrain/common/math_util.hpp"
#include "cbrain/fault/fault.hpp"

namespace cbrain {

using DramAddr = i64;  // 16-bit-word granularity

class Dram {
 public:
  explicit Dram(i64 capacity_words = i64{64} * 1024 * 1024);

  i64 capacity_words() const { return static_cast<i64>(mem_.size()); }

  void read_block(DramAddr addr, i64 words, std::int16_t* out) const;
  // Bounds-checked view of [addr, addr+words): a read with no copy (the
  // fault-free DMA load's source).
  const std::int16_t* read_span(DramAddr addr, i64 words) const;
  // Bulk equivalent of `words` StridedRun::put calls at addr, addr+1,
  // ...: one copy, then the fault hook once per word in address order, so
  // memory, FaultStats (code_words included) and the event log match the
  // word-at-a-time loop.
  void write_words(DramAddr addr, i64 words, const std::int16_t* in);

  // A strided destination, bounds-checked once: word i of the run lands
  // at addr + i*stride. put() stores one word and then calls the fault
  // hook on it, so a caller that interleaves several runs word by word
  // keeps the hook order of one write per word.
  class StridedRun {
   public:
    void put(i64 i, std::int16_t value) const {
      std::int16_t* w = base_ + i * stride_;
      *w = value;
      if (fault_ != nullptr) fault_->on_dram_write(addr_ + i * stride_, 1, w);
    }

   private:
    friend class Dram;
    std::int16_t* base_ = nullptr;
    DramAddr addr_ = 0;
    i64 stride_ = 1;
    FaultInjector* fault_ = nullptr;
  };
  StridedRun strided_run(DramAddr addr, i64 stride, i64 words);

  // Fault-injection hook: at-rest corruption strikes on the write path
  // (what lands in the array is what later reads observe). Detached =
  // one pointer compare per write.
  void attach_fault(FaultInjector* injector) { fault_ = injector; }

 private:
  void bounds(DramAddr addr, i64 words) const;

  std::vector<std::int16_t> mem_;
  FaultInjector* fault_ = nullptr;
};

}  // namespace cbrain
