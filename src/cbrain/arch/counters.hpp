// Event counters shared by the analytical model (model/) and the
// cycle-level simulator (sim/). Cross-validation tests assert the two
// populate these identically for the same program, and the energy model
// converts them to joules.
#pragma once

#include <string>

#include "cbrain/common/math_util.hpp"

namespace cbrain {

struct TrafficCounters {
  // On-chip buffer traffic, in 16-bit words. Output-buffer partials are
  // physically 32-bit; counters record the word count actually moved
  // (2 words per partial).
  i64 input_reads = 0;
  i64 input_writes = 0;  // DMA fills
  i64 output_reads = 0;
  i64 output_writes = 0;
  i64 weight_reads = 0;
  i64 weight_writes = 0;  // DMA fills
  i64 bias_reads = 0;
  i64 bias_writes = 0;

  // External memory traffic, 16-bit words.
  i64 dram_reads = 0;
  i64 dram_writes = 0;

  // Datapath activity. idle_mul_slots counts multiplier positions left
  // unused in busy cycles — the under-utilization §4.1.1 blames on rigid
  // inter-kernel mapping.
  i64 mul_ops = 0;
  i64 idle_mul_slots = 0;
  i64 add_ops = 0;

  // Timing. compute_cycles: PE-busy cycles. total_cycles adds DMA time not
  // hidden by double buffering.
  i64 compute_cycles = 0;
  i64 total_cycles = 0;

  i64 buffer_reads() const {
    return input_reads + output_reads + weight_reads + bias_reads;
  }
  i64 buffer_writes() const {
    return input_writes + output_writes + weight_writes + bias_writes;
  }
  i64 buffer_accesses() const { return buffer_reads() + buffer_writes(); }
  i64 buffer_access_bits() const { return buffer_accesses() * 16; }
  i64 dram_words() const { return dram_reads + dram_writes; }

  bool operator==(const TrafficCounters&) const = default;
  TrafficCounters& operator+=(const TrafficCounters& o);
  // Multiplies every counter by n (batched repetition of the same work).
  TrafficCounters& scale(i64 n);
  std::string to_string() const;
};

TrafficCounters operator+(TrafficCounters a, const TrafficCounters& b);

}  // namespace cbrain
