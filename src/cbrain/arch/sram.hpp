// On-chip SRAM models with access accounting.
//
// Sram16 backs the input, weight and bias buffers (16-bit words).
// AccumSram backs the output buffer: partial sums are held at extended
// precision (as DianNao's NBout does) so accumulation order never loses
// bits; capacity and traffic are accounted as 32-bit partials = 2 words.
#pragma once

#include <string>
#include <vector>

#include "cbrain/common/math_util.hpp"
#include "cbrain/fault/fault.hpp"
#include "cbrain/fixed/fixed16.hpp"

namespace cbrain {

struct SramStats {
  i64 reads = 0;   // words read
  i64 writes = 0;  // words written
};

class Sram16 {
 public:
  Sram16(std::string name, i64 size_bytes);

  const std::string& name() const { return name_; }
  i64 size_words() const { return static_cast<i64>(mem_.size()); }

  std::int16_t read(i64 addr);
  void write(i64 addr, std::int16_t value);
  // Bulk write: counts one access per word (a wide port moves many words
  // in one cycle; energy scales with words, timing with cycles elsewhere).
  void write_block(i64 addr, i64 words, const std::int16_t* in);

  // Hot-path escape hatch: bounds-checks [addr, addr+words) once and
  // returns a raw view of the backing store. The caller owns the traffic
  // accounting via count_reads/count_writes — the simulator's inner loops
  // batch one increment per window/tile instead of one per element, with
  // totals identical to the per-access methods above.
  // (Non-const: an attached fault injector may upset cells on the read
  // path — a read observes whatever the array holds *now*.)
  const std::int16_t* read_span(i64 addr, i64 words);
  void count_reads(i64 words) { stats_.reads += words; }
  void count_writes(i64 words) { stats_.writes += words; }

  // Fault-injection hook: read paths report touched words to `injector`
  // as `site`. Detach with nullptr; when detached every hook is one
  // pointer compare (the zero-fault path is bit- and counter-identical).
  void attach_fault(FaultInjector* injector, FaultSite site) {
    fault_ = injector;
    fault_site_ = site;
  }

  const SramStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  void bounds(i64 addr, i64 words) const;

  std::string name_;
  std::vector<std::int16_t> mem_;
  SramStats stats_;
  FaultInjector* fault_ = nullptr;
  FaultSite fault_site_ = FaultSite::kInputSram;
};

class AccumSram {
 public:
  // size_bytes of the physical buffer; each partial occupies 4 bytes.
  AccumSram(std::string name, i64 size_bytes);

  const std::string& name() const { return name_; }
  i64 size_partials() const { return static_cast<i64>(mem_.size()); }

  Fixed16::acc_t read(i64 index);
  void write(i64 index, Fixed16::acc_t value);
  // Read-modify-write accumulate: the §4.2.2 "add-and-store" operation.
  void accumulate(i64 index, Fixed16::acc_t addend);

  // Hot-path escape hatch (see Sram16::read_span): one bounds check for
  // [index, index+count) partials, traffic accounted by the caller in
  // partial units (2 words each, matching read/write/accumulate).
  Fixed16::acc_t* span(i64 index, i64 count);
  void count_reads(i64 partials) { stats_.reads += 2 * partials; }
  void count_writes(i64 partials) { stats_.writes += 2 * partials; }

  // Checkpoint accessor for the executor's replay machinery: same view as
  // span() but with no stats and no fault hook (saving/restoring a
  // checkpoint is not architectural traffic).
  Fixed16::acc_t* raw_span(i64 index, i64 count) { return span_ptr(index, count); }

  // Fault-injection hook (see Sram16::attach_fault); accesses report as
  // FaultSite::kAccumSram.
  void attach_fault(FaultInjector* injector) { fault_ = injector; }

  // Traffic in 16-bit words (2 per partial access).
  const SramStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

 private:
  void bounds(i64 index) const;
  Fixed16::acc_t* span_ptr(i64 index, i64 count);

  std::string name_;
  std::vector<Fixed16::acc_t> mem_;
  SramStats stats_;
  FaultInjector* fault_ = nullptr;
};

}  // namespace cbrain
