// Accelerator configuration — the paper's Table 3 plus the external-memory
// model the paper implies but does not tabulate.
//
//   name        bandwidth      size      operation        cycles
//   PE          16-16 / 32-32  16-bit    multiplication   1
//   InOut-buf   16 / 32        2 MByte   add              1
//   Weight-buf  256 / 1024     1 MByte   load             1
//   Bias-buf    16 / 32        4 KByte   store            1
//
// Bandwidths are 16-bit words per cycle and scale with the PE width: the
// input side feeds Tin words, the weight buffer feeds Tin*Tout words, and
// the output side retires Tout partial sums per cycle (the adder-tree
// rate; stores are off the critical path, §4.2.2). Each port feeds the PE
// array every cycle, so buffer bandwidth never sets the timing and is not
// configured here; DRAM bandwidth does, and is.
#pragma once

#include <string>

#include "cbrain/common/math_util.hpp"

namespace cbrain {

struct BufferConfig {
  i64 size_bytes = 0;
  i64 size_words() const { return size_bytes / 2; }
};

struct DramConfig {
  // Effective words (16-bit) per accelerator cycle. The default (2.0,
  // i.e. 4 GB/s at 1 GHz) is the single calibrated constant of this
  // reproduction: one embedded DDR3-class channel at a 1 GHz core clock.
  // See DESIGN.md §2.
  double words_per_cycle = 2.0;
  // Fixed per-transfer startup cost (row activation + controller).
  i64 latency_cycles = 64;

  // Optional row-buffer timing (off by default; the paper's numbers use
  // the flat model). When enabled, each DRAM row opened during a transfer
  // costs `row_miss_cycles` on top of the bus time — strided gathers
  // (depth-major slices, im2col patterns) open many rows, which is the
  // quantitative form of the paper's data-alignment argument
  // (bench_ablation_dram_rows).
  bool row_buffer_model = false;
  i64 row_words = 1024;       // 2 KiB rows at 16-bit words
  i64 row_miss_cycles = 24;   // activate + precharge, in core cycles

  i64 transfer_cycles(i64 words) const {
    if (words <= 0) return 0;
    i64 cycles = latency_cycles + static_cast<i64>(
        static_cast<double>(words) / words_per_cycle);
    if (row_buffer_model) cycles += ceil_div(words, row_words) *
                                    row_miss_cycles;
    return cycles;
  }

  // Timing of a strided 2-D gather: `chunks` pieces of `chunk_words` at
  // `src_stride`. Bus time is identical to the flat model; under the
  // row-buffer model every distinct row opened adds row_miss_cycles.
  // Row occupancy is evaluated exactly for up to 2048 chunks and
  // extrapolated beyond (deterministic; documented approximation).
  i64 transfer_cycles_pattern(i64 chunks, i64 chunk_words,
                              i64 src_stride) const;
};

struct AcceleratorConfig {
  i64 tin = 16;   // parallel inputs (multipliers per output neuron)
  i64 tout = 16;  // parallel output neurons (adder trees)
  double clock_ghz = 1.0;

  BufferConfig inout_buf{2 * 1024 * 1024};  // shared In/Out data buffer
  BufferConfig weight_buf{1 * 1024 * 1024};
  BufferConfig bias_buf{4 * 1024};
  DramConfig dram;

  i64 multipliers() const { return tin * tout; }
  i64 adders() const { return tin * tout; }  // Tout trees of Tin adders

  double cycles_to_ms(i64 cycles) const {
    return static_cast<double>(cycles) / (clock_ghz * 1e6);
  }

  std::string to_string() const;

  // The two configurations evaluated in the paper ("16-16", "32-32").
  static AcceleratorConfig paper_16_16();
  static AcceleratorConfig paper_32_32();
  // Arbitrary geometry with Table-3 scaling rules (used by Fig. 9's
  // 16-24 / 16-28 / 16-32 points and the geometry ablation).
  static AcceleratorConfig with_pe(i64 tin, i64 tout);
};

}  // namespace cbrain
