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

  std::int16_t read(DramAddr addr) const;
  void write(DramAddr addr, std::int16_t value);
  void read_block(DramAddr addr, i64 words, std::int16_t* out) const;
  // Bounds-checked view of [addr, addr+words): a read with no copy (the
  // fault-free DMA load's source).
  const std::int16_t* read_span(DramAddr addr, i64 words) const;
  // Bulk equivalent of `words` write() calls at addr, addr+1, ...: one
  // copy, then the fault hook once per word in address order, so memory,
  // FaultStats (code_words included) and the event log match the
  // word-at-a-time loop.
  void write_words(DramAddr addr, i64 words, const std::int16_t* in);

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
