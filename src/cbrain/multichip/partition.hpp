// Multi-chip partition planner (DESIGN.md §16).
//
// One network, N chips, two distribution strategies:
//
//  * kPipeline — each chip owns a contiguous stage of the layer DAG and
//    activations stream chip-to-chip. Stages may only be cut where the
//    set of tensors live across the cut is exactly the previous layer's
//    output (a "single live tensor" boundary) — residual blocks and
//    inception modules therefore stay whole inside one stage, which is
//    what makes every stage expressible as a standalone Network with the
//    builder's one-input invariant. The cut positions are chosen by a DP
//    that minimizes the steady-state bottleneck max(stage cycles +
//    boundary transfer cycles), the classic pipeline objective.
//
//  * kShard — every layer is split across all chips along one axis:
//      kDout    — output-map (kernel) shard: each chip computes a slice
//                 of the output maps with the matching weight rows;
//                 grouped conv shards across whole groups when there are
//                 at least as many groups as chips (depthwise always
//                 lands here) and within each group otherwise.
//      kSpatial — output-row (map) shard: each chip computes a band of
//                 output rows from an input band with an explicit halo
//                 (zero rows beyond the image, exactly the zeros conv
//                 padding would have supplied, so a shard subnet runs
//                 with pad = 0 over a pre-padded band — bit-identical by
//                 construction, stride/dilation included).
//    After each layer the partial maps are reassembled on every chip by a
//    ring all-gather — or, when producer and consumer are both spatially
//    sharded on the same row basis, by the far cheaper neighbour halo
//    exchange (possibly nothing at all, e.g. an eltwise join of two
//    aligned spatial shards). Replicated layers (softmax, and anything a
//    single chip must own) run on chip 0.
//
// Each piece/stage is a real Network compiled through the ordinary
// compiler, so Algorithm 2 re-runs per shard geometry — the adaptive
// selector chooses scheme *and* partition jointly: the planner picks the
// partition from the analytical model (with the interconnect terms
// below), and the compiler then picks each piece's scheme for its actual
// post-partition geometry. The static verifier runs per piece, so the
// V-checks hold per chip as well as for the global single-chip program.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cbrain/compiler/compiler.hpp"
#include "cbrain/model/network_model.hpp"
#include "cbrain/multichip/interconnect.hpp"
#include "cbrain/nn/network.hpp"

namespace cbrain::multichip {

enum class PartitionStrategy { kAuto, kPipeline, kShard };
const char* partition_strategy_name(PartitionStrategy s);
// Parses "auto" | "pipeline" | "shard".
Result<PartitionStrategy> parse_partition_strategy(const std::string& s);

enum class ShardAxis {
  kReplicate,    // whole layer on chip 0 (softmax, unshardable layers)
  kDout,         // kernel shard: output-map slice + weight-row slice
  kSpatial,      // map shard: output-row band + input halo band
  kHostConcat,   // depth-stack copy; pure data movement, no compute
  kHostEltwise,  // residual join: row bands through the shared adder
                 // kernel (simd::add_s16) on each chip
};
const char* shard_axis_name(ShardAxis a);

// Where a chip's piece of a layer's output lands in the full tensor:
// subnet output maps [src0, src0+count) map to global maps
// [dst0, dst0+count). kDout pieces of a within-group shard carry one
// segment per group; everything else is a single segment.
struct DepthSeg {
  i64 src0 = 0;
  i64 count = 0;
  i64 dst0 = 0;
};

struct ShardPiece {
  i64 chip = 0;
  // Non-empty iff the piece computes through a compiled subnet.
  std::optional<Network> subnet;
  // kDout placement.
  std::vector<DepthSeg> segs;
  // kDout input-map slice (group sharding); [0, din) when full depth.
  i64 in_d0 = 0, in_d1 = 0;
  // kSpatial / kHostEltwise: owned output rows [row0, row1) and, for
  // kSpatial, the absolute input rows of the halo band [in_row0, in_row1)
  // (may extend past the image; those rows are explicit zeros).
  i64 row0 = 0, row1 = 0;
  i64 in_row0 = 0, in_row1 = 0;
  // Model-estimated compute cycles of this piece (planner objective and
  // the per-chip clock for layers executed host-side).
  i64 est_cycles = 0;

  bool active() const { return subnet.has_value() || row1 > row0; }
  i64 out_words(const MapDims& full) const;  // words this piece produces
};

// What crosses the interconnect after a sharded layer completes.
enum class ExchangeKind { kNone, kHalo, kAllGather, kBroadcast };
const char* exchange_kind_name(ExchangeKind k);

struct LayerPartition {
  LayerId layer = -1;
  ShardAxis axis = ShardAxis::kReplicate;
  std::vector<ShardPiece> pieces;  // size == chips; inactive pieces idle
  ExchangeKind exchange = ExchangeKind::kNone;
  i64 exchange_words = 0;   // total words crossing links
  i64 exchange_cycles = 0;  // closed form, links in parallel
  // kHalo: per destination chip, the words it must receive.
  std::vector<i64> halo_words;
};

struct PipelineStage {
  i64 chip = 0;
  LayerId first = 0, last = 0;  // global layer ids [first, last]
  Network subnet{"stage"};
  i64 est_cycles = 0;   // model cycles of the stage's layers
  i64 xfer_words = 0;   // boundary tensor to the next stage (0 for last)
  i64 xfer_cycles = 0;
};

struct MultiChipPlan {
  std::string network;
  i64 chips = 1;
  PartitionStrategy strategy = PartitionStrategy::kPipeline;  // resolved
  InterconnectConfig interconnect;
  std::vector<PipelineStage> stages;     // kPipeline
  std::vector<LayerPartition> layers;    // kShard, indexed by LayerId
  // Predicted steady-state cycles per image — the planner's objective
  // (pipeline: bottleneck stage + transfer; shard: sum over layers of
  // slowest piece + exchange).
  i64 steady_cycles = 0;

  std::string to_string() const;
};

struct PlanOptions {
  i64 chips = 1;
  PartitionStrategy strategy = PartitionStrategy::kAuto;
  InterconnectConfig interconnect;
  Policy policy = Policy::kAdaptive2;
  // Tests pin the conv axis to exercise halo corners; the planner
  // otherwise chooses per layer from the model.
  std::optional<ShardAxis> force_conv_axis;
};

// [1, kMaxChips] simulated chips per package.
inline constexpr i64 kMaxChips = 64;
Status validate_chip_count(i64 chips);

// Builds the partition plan. kAuto resolves to whichever strategy the
// analytical model predicts the higher steady-state throughput for.
Result<MultiChipPlan> plan_multichip(const Network& net,
                                     const AcceleratorConfig& config,
                                     const PlanOptions& options);

// Balanced split of [0, n) into `parts` ranges (first n % parts ranges
// one longer); trailing ranges may be empty when parts > n.
std::vector<std::pair<i64, i64>> balanced_split(i64 n, i64 parts);

}  // namespace cbrain::multichip
