// Package interconnect for multi-chip scale-out (DESIGN.md §16).
//
// N C-Brain chips sit on one package substrate joined by point-to-point
// links. The link model mirrors DramConfig's shape — a fixed per-transfer
// startup latency plus a bandwidth term — because that is the same
// first-order abstraction the paper's external-memory analysis uses:
// activations are bulk block transfers, so (latency + words/bandwidth)
// captures everything the partition planner needs. Energy is a flat
// per-word picojoule cost in the style of arch/energy_model.hpp; the
// default (12 pJ/word) sits between on-chip SRAM (~1 pJ) and external
// DRAM (~80 pJ), the usual ordering for short-reach package links.
//
// Two collective shapes cover every exchange the partitioner emits:
//   * point-to-point  — a pipeline stage handing its boundary tensor to
//     the next chip, or a halo row shipped to a spatial neighbour;
//   * ring all-gather — chips_active pieces reassembled everywhere in
//     (chips_active - 1) rounds, each round moving the largest piece over
//     every link in parallel (the standard ring closed form).
//
// The Interconnect instance meters per-link and aggregate counters the
// same way DmaEngine meters DMA stats: deterministic integers derived
// only from word counts, never from wall clocks, so multi-chip traces and
// tables are byte-identical at any --jobs or SIMD backend.
#pragma once

#include <string>
#include <vector>

#include "cbrain/common/math_util.hpp"

namespace cbrain::multichip {

struct InterconnectConfig {
  // Effective 16-bit words per accelerator cycle per link. The default
  // (8.0 words/cycle = 16 GB/s at 1 GHz) models a serdes-class package
  // link: 4x the single DRAM channel, far below on-chip SRAM bandwidth.
  double words_per_cycle = 8.0;
  // Per-transfer startup: serialization, link-layer framing, and the
  // receiving chip's DMA setup. Charged once per transfer, like
  // DramConfig::latency_cycles.
  i64 latency_cycles = 200;
  // Flat energy per 16-bit word crossing a link.
  double energy_pj_per_word = 12.0;

  // One point-to-point transfer of `words` over a single link.
  i64 link_cycles(i64 words) const {
    if (words <= 0) return 0;
    return latency_cycles +
           static_cast<i64>(static_cast<double>(words) / words_per_cycle);
  }

  // Ring all-gather of `chips` pieces, the largest being
  // `max_piece_words`: (chips - 1) rounds, each bounded by the slowest
  // link carrying the largest piece. All links run in parallel.
  i64 all_gather_cycles(i64 max_piece_words, i64 chips) const {
    if (chips <= 1 || max_piece_words <= 0) return 0;
    return (chips - 1) * link_cycles(max_piece_words);
  }
};

// Aggregate and per-link transfer counters.
struct LinkStats {
  i64 transfers = 0;
  i64 words = 0;
};

class Interconnect {
 public:
  Interconnect(InterconnectConfig config, i64 chips)
      : config_(config), chips_(chips),
        links_(static_cast<std::size_t>(chips * chips)) {}

  const InterconnectConfig& config() const { return config_; }
  i64 chips() const { return chips_; }

  // Meters one point-to-point transfer src -> dst; returns its cycles.
  i64 transfer(i64 src, i64 dst, i64 words);

  // Meters a ring all-gather of `piece_words[c]` per chip (pieces may be
  // zero for idle chips); returns the collective's cycles. Traffic is
  // charged to the ring links: chip c forwards everything it has seen to
  // its successor, so each link carries (total - its owner's piece).
  i64 all_gather(const std::vector<i64>& piece_words);

  // Meters a broadcast of `words` from `src` to every other chip over a
  // binomial tree; returns its cycles.
  i64 broadcast(i64 src, i64 words);

  const LinkStats& link(i64 src, i64 dst) const {
    return links_[static_cast<std::size_t>(src * chips_ + dst)];
  }
  i64 total_transfers() const { return total_.transfers; }
  i64 total_words() const { return total_.words; }
  i64 total_cycles() const { return total_cycles_; }
  double total_energy_pj() const {
    return static_cast<double>(total_.words) * config_.energy_pj_per_word;
  }

  void reset_stats();

  // One line per active link plus the aggregate row.
  std::string to_string() const;

 private:
  void charge(i64 src, i64 dst, i64 words);

  InterconnectConfig config_;
  i64 chips_ = 1;
  std::vector<LinkStats> links_;  // [src * chips + dst]
  LinkStats total_;
  i64 total_cycles_ = 0;
};

}  // namespace cbrain::multichip
