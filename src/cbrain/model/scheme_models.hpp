// Closed-form cost models, one per macro-instruction kind. Each function
// returns exactly the counters the cycle-level simulator accumulates when
// executing the same instruction (tests assert equality), but in O(lane
// groups) instead of O(MACs) — fast enough to model VGG-scale networks.
//
// The shared accounting contract (documented once here, implemented twice
// — analytically below and operationally in sim/executor.cpp):
//
//  * One PE operation = one busy cycle; it may use up to Tin*Tout
//    multiplier slots; unused slots count as idle_mul_slots.
//  * Values loaded into PE registers are read from a buffer once per
//    *pass* (weight residency, bias); values consumed streaming are read
//    once per *operation* (data; weights under classic inter-kernel).
//  * Input data read by an op is shared by all Tout lanes: counted once.
//  * Partial sums are 32-bit: every buffer access to a partial moves 2
//    words. An accumulate is read+write (add-and-store); the very first
//    contribution is write-only.
//  * Finalize (activation + quantize + store): reads the partial from the
//    output buffer (2 words) if it lives there, then writes the 16-bit
//    result to every consumer cube in DRAM. Values that complete inside
//    the PE (classic inter, FC) skip the buffer and go straight out.
//  * Stores and DMA are off the compute critical path; per double-buffer
//    phase the timing model takes max(compute, DMA).
#pragma once

#include "cbrain/arch/config.hpp"
#include "cbrain/arch/counters.hpp"
#include "cbrain/isa/instruction.hpp"

namespace cbrain {

// `consumers` is the number of DRAM cubes a finalized output word is
// stored to: the size of the layer's LayoutPlan::out_maps entry.
TrafficCounters model_conv_tile(const ConvTileInstr& instr,
                                const AcceleratorConfig& config,
                                i64 consumers);

TrafficCounters model_pool_tile(const PoolTileInstr& instr,
                                const AcceleratorConfig& config,
                                i64 consumers);

TrafficCounters model_fc_tile(const FcTileInstr& instr,
                              const AcceleratorConfig& config,
                              i64 consumers);

TrafficCounters model_eltwise_tile(const EltwiseTileInstr& instr,
                                   const AcceleratorConfig& config,
                                   i64 consumers);

// Number of sub-windows packed per PE op ("when Tin is bigger than ks*ks
// we map multiple small windows to PE in one operation", §4.2.1).
i64 windows_per_op(i64 tin, i64 sub_words);

// Upper-bound cycles at 100% multiplier utilization (Fig. 7's "ideal").
i64 ideal_conv_cycles(i64 macs, const AcceleratorConfig& config);

}  // namespace cbrain
