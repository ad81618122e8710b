// MultiChipExecutor — runs one network across N simulated C-Brain chips
// (DESIGN.md §16).
//
// Each chip is an ordinary engine::Session (weight-resident, either
// fidelity) over the piece or stage subnet the partition planner carved
// out, so the whole single-chip stack — compiler, verifier, simulator,
// functional tier, SIMD kernels — is reused unchanged per chip. The
// orchestrator owns the full activation tensors, feeds each chip exactly
// the slice its subnet consumes (explicit zero halos included), scatters
// the pieces back, and meters every word that logically crossed the
// package interconnect.
//
// Determinism contract (the multi-chip extension of the engine's):
// outputs are bit-identical to the single-chip oracle at any chip count,
// partition strategy, --jobs, intra-op fan-out and SIMD backend, because
// every output element is still produced by exactly one piece running the
// very same fixed-point arithmetic over the very same operand values —
// partitioning only changes *where* an element is computed, never *how*.
// Chip clocks, interconnect counters and the per-chip cycle-domain spans
// are pure functions of (network, config, plan), so traces stay
// byte-identical too.
//
// Observability: one cycle-domain track per chip ("chip0:<net>", ...)
// carrying that chip's layer/stage compute spans and its interconnect
// exchange spans (cat "xfer"), plus mc.* counters in the metrics
// registry.
#pragma once

#include <memory>
#include <vector>

#include "cbrain/engine/engine.hpp"
#include "cbrain/multichip/interconnect.hpp"
#include "cbrain/multichip/partition.hpp"

namespace cbrain::multichip {

struct MultiChipOptions {
  PlanOptions plan;
  Fidelity fidelity = Fidelity::kCycle;
};

// Per-chip busy/transfer accounting in simulated cycles.
struct ChipStats {
  i64 compute_cycles = 0;  // cycles this chip's pieces/stages ran
  i64 xfer_cycles = 0;     // cycles spent in interconnect exchanges
  i64 clock = 0;           // the chip's local clock after the last image
};

struct MultiChipStats {
  std::vector<ChipStats> chips;
  i64 images = 0;
  i64 makespan_cycles = 0;  // completion time of the last image
  i64 steady_cycles = 0;    // the plan's predicted steady-state per image
  i64 xfer_transfers = 0;
  i64 xfer_words = 0;
  double xfer_energy_pj = 0.0;
};

class MultiChipExecutor {
 public:
  // Plans the partition (CHECK-fails on an invalid option set — callers
  // wanting a Status should run plan_multichip first) and
  // opens one weight-resident session per piece/stage through `engine`'s
  // shared compile cache. The engine must outlive the executor.
  MultiChipExecutor(engine::Engine& engine, const Network& net,
                    const MultiChipOptions& options);

  const Network& net() const { return net_; }
  const MultiChipPlan& plan() const { return plan_; }
  const Interconnect& interconnect() const { return icn_; }
  Fidelity fidelity() const { return options_.fidelity; }

  // Slices and loads parameters into every chip session. Must run before
  // the first infer; may run again to hot-swap.
  void load_params(const NetParamsData<Fixed16>& params);

  // Runs one image across the package: infer_many of a stream of one.
  // final_output and every byte of it are identical to a single-chip
  // Session::infer of the same input; per_layer counters aggregate the
  // chips' pieces per global layer.
  SimResult infer(const Tensor3<Fixed16>& input);

  // Runs a stream of images. Pipeline plans overlap images across stages
  // (round t runs image t-s on stage s); shard plans run images back to
  // back with all chips cooperating on each. Results land in submission
  // order, bit-identical to sequential infer() at any `jobs`.
  std::vector<SimResult> infer_many(
      const std::vector<Tensor3<Fixed16>>& inputs, i64 jobs = 0);

  MultiChipStats stats() const;

 private:
  struct PieceRun {  // one piece's contribution to one image
    i64 cycles = 0;
    TrafficCounters counters;
  };

  void build_sessions();
  void ensure_tracks();
  Tensor3<Fixed16> piece_input(const Layer& l, const ShardPiece& piece,
                               ShardAxis axis,
                               const std::vector<Tensor3<Fixed16>>& acts)
      const;
  void scatter_piece(const ShardPiece& piece,
                     const Tensor3<Fixed16>& piece_out,
                     Tensor3<Fixed16>& out) const;
  SimResult infer_shard(const Tensor3<Fixed16>& input);
  std::vector<SimResult> infer_many_pipeline(
      const std::vector<Tensor3<Fixed16>>& inputs, i64 jobs);
  void record_span(i64 chip, i64 start, i64 dur, const std::string& name,
                   const char* cat);
  i64 schedule_stage(const PipelineStage& st, i64 ready, i64 cycles,
                     const std::string& name);
  void sync_exchange(const LayerPartition& lp, const Layer& l);

  engine::Engine& engine_;
  Network net_;
  MultiChipOptions options_;
  MultiChipPlan plan_;
  Interconnect icn_;
  NetworkModelResult model_;  // host-executed layers' counter source

  // kPipeline: one session per stage. kShard: session per (layer, chip)
  // piece that computes through a subnet (nullptr otherwise).
  std::vector<std::unique_ptr<engine::Session>> stage_sessions_;
  std::vector<std::vector<std::unique_ptr<engine::Session>>>
      shard_sessions_;

  std::vector<i64> clock_;          // per-chip local clocks
  std::vector<ChipStats> chip_stats_;
  std::vector<int> tracks_;         // per-chip tracer track ids
  bool tracks_ready_ = false;
  i64 images_ = 0;
  i64 makespan_ = 0;
  bool params_loaded_ = false;
};

}  // namespace cbrain::multichip
