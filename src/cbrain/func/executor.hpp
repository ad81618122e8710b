// FuncExecutor — the functional (fast) tier behind Fidelity::kFunctional.
//
// Drop-in sibling of SimExecutor with the same load_params/infer surface
// and the same SimResult type, so engine::Session can hold either behind
// one interface. Outputs are bit-identical to the simulator: every layer
// runs the identical fixed-point arithmetic (func/kernels for conv/FC,
// the ref/ kernels for pool/LRN, and the same host-side double math for
// LRN/softmax), and the Q16.16 accumulation contract makes the result
// independent of summation order. Cycle/energy numbers in the returned
// counters are *estimates* from the analytical model — which the test
// suite holds to exact agreement with the simulator's accounting
// (tests/test_fidelity.cpp), so "estimate" here measures the model's
// fidelity, not a looser contract.
//
// Batched execution (DESIGN.md §14): infer_batch runs B images through
// the layer graph one *layer* at a time, so each conv/FC weight block
// streams through cache once per layer per batch instead of once per
// image. Every output element is still one exact integer sum computed by
// one task, so each per-request SimResult is bit-identical to what a
// sequential infer() of that input would return, at any batch size,
// worker count, or SIMD backend. A malformed input fails only its
// slot (Status isolation) when `statuses` is provided.
//
// Steady-state allocation: per-layer per-image output tensors and the
// kernel scratch arena are owned by the executor and sized on first use;
// warm infer_batch calls at a stable batch size allocate only the
// returned SimResults (tests/test_batch.cpp pins this with a counting
// allocator and the scratch_growths() hook).
//
// Observability mirrors the sim tier's schema under the func.* prefix
// (func.infers_total, func.cycles_total, ...) and emits the same
// cycle-domain span shape on a "func:<net>" track per image, each span
// tagged tier=functional; span edges come from the model's per-layer
// cycle estimates, so traces stay byte-deterministic across jobs and
// backends.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cbrain/common/status.hpp"
#include "cbrain/compiler/compiler.hpp"
#include "cbrain/func/fidelity.hpp"
#include "cbrain/func/kernels.hpp"
#include "cbrain/model/network_model.hpp"
#include "cbrain/ref/params.hpp"
#include "cbrain/sim/executor.hpp"

namespace cbrain::func {

class FuncExecutor {
 public:
  // `compiled` must have been produced for `net` under `config`; the
  // program is not interpreted here but its scheme/tiling choices drive
  // the analytical counter estimates.
  FuncExecutor(const Network& net, const CompiledNetwork& compiled,
               const AcceleratorConfig& config);

  // One layer's kernel operands (empty for layers without weights).
  struct PackedLayer {
    PackedRows weights;  // pack_units' layout for the layer (pack_plan)
    // Bias promoted to accumulator (Q16.16) scale, zero-padded to dout.
    std::vector<Fixed16::acc_t> bias_acc;
    // Set when some filter fails simd::filter_sum_ok: the layer runs its
    // kernel's int64 twin on the same layout (bit-identical, slower).
    // Checked once per pack, so a hand-built NetParamsData that breaks
    // the bound keeps outputs identical.
    bool exact = false;
  };

  // Indexed by LayerId; immutable once built.
  using PackedParams = std::vector<PackedLayer>;

  // Packs each conv/FC layer's weights into its kernel's layout (conv
  // tile blocks, depthwise filters or FC rows; pack_plan), promotes biases
  // to accumulator scale and checks each filter against
  // simd::filter_sum_ok. The whole net is packed and checked in
  // one parallel pass over chunks of pack units, each page touched once,
  // and only the packed copy stays resident. May run again to
  // hot-swap parameters (engine::Session contract): it builds a fresh
  // pack, so executors sharing the old one are unaffected.
  void load_params(const NetParamsData<Fixed16>& params);
  // Serves from `other`'s pack (which must be loaded, for the same
  // network) instead of packing again: Engine::open_pool packs once per
  // functional pool.
  void share_params(const FuncExecutor& other);
  bool params_loaded() const { return packed_ != nullptr; }
  // The pack this executor serves from (null before load_params).
  const PackedParams* packed_params() const { return packed_.get(); }

  // Runs one input through the layer graph. Bit-identical final_output
  // and per-layer tensors to SimExecutor::infer on the same (net,
  // compiled, params, input); per_layer counters are the analytical
  // model's estimates.
  SimResult infer(const Tensor3<Fixed16>& input);

  // Runs B inputs through the layer graph as layer-wise batched calls.
  // Returns one SimResult per slot, each bit-identical to a sequential
  // infer() of that input. With `statuses` non-null, a slot whose input
  // does not match the network's input dims gets a non-OK Status and an
  // empty SimResult while the other slots still execute; with `statuses`
  // null a bad input fails the whole call (CBRAIN_CHECK), matching
  // infer()'s historical contract.
  std::vector<SimResult> infer_batch(
      const std::vector<const Tensor3<Fixed16>*>& inputs,
      std::vector<Status>* statuses = nullptr);

  // Total buffer (re)allocation events across the executor's resident
  // state: kernel scratch growth + per-layer output tensor reconstruction.
  // Stable across warm same-shape calls — test hook for the zero
  // steady-state-allocation contract.
  i64 scratch_growths() const { return scratch_.growths + tensor_growths_; }

  // Per-layer output read-back for cross-validation (valid after
  // infer(); image 0 of the most recent batch — same logical cubes the
  // simulator materializes in DRAM).
  const Tensor3<Fixed16>& output(LayerId id) const;

  // The model estimates backing this executor's counters.
  const NetworkModelResult& model() const { return model_; }

 private:
  // The resident output tensor for (layer, image), reconstructed only on
  // a dims/order change (counted in tensor_growths_).
  Tensor3<Fixed16>& slot(std::size_t layer, std::size_t image,
                         const MapDims& dims);

  const Network& net_;
  AcceleratorConfig config_;
  NetworkModelResult model_;
  std::shared_ptr<const PackedParams> packed_;
  // outputs_[layer][image] — never shrunk, rewritten every batch.
  std::vector<std::vector<Tensor3<Fixed16>>> outputs_;
  KernelScratch scratch_;
  // Reused pointer staging for the batched layer calls (in_b_ptrs_ is
  // the second operand of two-input layers — eltwise add).
  std::vector<const Tensor3<Fixed16>*> in_ptrs_;
  std::vector<const Tensor3<Fixed16>*> in_b_ptrs_;
  std::vector<Tensor3<Fixed16>*> out_ptrs_;
  i64 tensor_growths_ = 0;
};

}  // namespace cbrain::func
