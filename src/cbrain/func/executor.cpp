#include "cbrain/func/executor.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "cbrain/common/check.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/obs/tracer.hpp"
#include "cbrain/ref/host_ops_ref.hpp"

namespace cbrain::func {
namespace {

// Packed int16 elements one load_params task packs and checks: big
// enough to amortize the task, small enough that AlexNet's fc6 alone
// spreads over hundreds of tasks.
constexpr i64 kPackChunkElems = i64{1} << 16;

}  // namespace

FuncExecutor::FuncExecutor(const Network& net, const CompiledNetwork& compiled,
                           const AcceleratorConfig& config)
    : net_(net), config_(config) {
  // Counter estimates are a pure function of (net, compiled, config):
  // computed once here, copied into every infer()'s result.
  model_ = model_network(net, compiled, config);
}

void FuncExecutor::load_params(const NetParamsData<Fixed16>& params) {
  CBRAIN_CHECK(static_cast<i64>(params.per_layer.size()) == net_.size(),
               "parameter table does not match network");
  auto packed = std::make_shared<PackedParams>(
      static_cast<std::size_t>(net_.size()));
  // A run of one layer's pack units, packed and checked by one task.
  struct Chunk {
    std::size_t layer;
    i64 first, count;
  };
  std::vector<Chunk> chunks;
  std::vector<PackPlan> plans(static_cast<std::size_t>(net_.size()));
  for (const Layer& l : net_.layers()) {
    if (!l.is_conv() && !l.is_fc()) continue;
    const auto idx = static_cast<std::size_t>(l.id);
    const auto& pdata = params.per_layer[idx];
    CBRAIN_CHECK(pdata.weights.dims() == l.weight_dims(),
                 "weight dims mismatch for layer " << l.name);
    PackedLayer& pl = (*packed)[idx];
    const PackPlan& plan = plans[idx] = pack_plan(l);
    // Sized, not zeroed: each chunk task writes its units, pads included.
    pl.weights.resize(static_cast<std::size_t>(plan.units * plan.unit_elems));
    pl.bias_acc = promote_bias(pdata.bias,
                               l.is_conv() ? l.conv().dout : l.fc().dout);
    const i64 per_chunk = std::max<i64>(1, kPackChunkElems / plan.unit_elems);
    for (i64 u = 0; u < plan.units; u += per_chunk)
      chunks.push_back({idx, u, std::min(per_chunk, plan.units - u)});
  }
  // Each chunk is re-laid from the Tensor4 storage into its kernel's
  // layout (pack_units) and checked while it is cache-hot. One char per
  // chunk, not a bit: the tasks write their flags concurrently.
  std::vector<char> chunk_exact(chunks.size());
  parallel::parallel_for(static_cast<i64>(chunks.size()), [&](i64 i) {
    const Chunk& ch = chunks[static_cast<std::size_t>(i)];
    chunk_exact[static_cast<std::size_t>(i)] = pack_units(
        net_.layer(static_cast<LayerId>(ch.layer)), plans[ch.layer],
        params.per_layer[ch.layer].weights.raw_data(), ch.first, ch.count,
        (*packed)[ch.layer].weights.data());
  });
  // A layer runs exact when any of its chunks does.
  for (std::size_t i = 0; i < chunks.size(); ++i)
    (*packed)[chunks[i].layer].exact |= chunk_exact[i] != 0;
  packed_ = std::move(packed);
}

void FuncExecutor::share_params(const FuncExecutor& other) {
  CBRAIN_CHECK(other.params_loaded(), "share_params before load_params");
  CBRAIN_CHECK(other.net_.size() == net_.size(),
               "share_params across different networks");
  packed_ = other.packed_;
}

Tensor3<Fixed16>& FuncExecutor::slot(std::size_t layer, std::size_t image,
                                     const MapDims& dims) {
  // The per-image vector was grown to the batch size by infer_batch
  // before any pointers were taken — never resized here.
  auto& per_image = outputs_[layer];
  CBRAIN_CHECK(image < per_image.size(), "slot beyond batch");
  Tensor3<Fixed16>& t = per_image[image];
  if (t.empty() || t.dims() != dims) {
    t = Tensor3<Fixed16>(dims);
    ++tensor_growths_;
  }
  return t;
}

SimResult FuncExecutor::infer(const Tensor3<Fixed16>& input) {
  return std::move(infer_batch({&input}).front());
}

std::vector<SimResult> FuncExecutor::infer_batch(
    const std::vector<const Tensor3<Fixed16>*>& inputs,
    std::vector<Status>* statuses) {
  CBRAIN_CHECK(params_loaded(), "load_params before infer");
  const auto batch = inputs.size();
  CBRAIN_CHECK(batch > 0, "infer_batch needs at least one input");
  if (outputs_.size() != static_cast<std::size_t>(net_.size()))
    outputs_.resize(static_cast<std::size_t>(net_.size()));
  // Grow every per-image vector up front: in_ptrs_/out_ptrs_ hold raw
  // pointers into these vectors, so they must not reallocate mid-batch.
  for (auto& per_image : outputs_)
    if (per_image.size() < batch) per_image.resize(batch);

  // Upfront per-slot validation against the network's input layer, so a
  // malformed input fails only its slot and never reaches a kernel.
  MapDims in_dims = net_.layers().front().out_dims;
  for (const Layer& l : net_.layers())
    if (l.kind == LayerKind::kInput) {
      in_dims = l.out_dims;
      break;
    }
  if (statuses) statuses->assign(batch, Status::ok());
  std::vector<std::size_t> active;
  active.reserve(batch);
  for (std::size_t b = 0; b < batch; ++b) {
    const bool good = inputs[b] != nullptr && inputs[b]->dims() == in_dims;
    if (good) {
      active.push_back(b);
      continue;
    }
    const std::string msg =
        "input dims " +
        (inputs[b] ? inputs[b]->dims().to_string() : std::string("<null>")) +
        " != network input " + in_dims.to_string();
    if (statuses)
      (*statuses)[b] = Status::invalid_argument(msg);
    else
      CBRAIN_CHECK(false, msg);
  }

  std::vector<SimResult> results(batch);
  if (active.empty()) return results;
  const i64 nact = static_cast<i64>(active.size());

  using Clock = std::chrono::steady_clock;
  auto& reg = obs::Registry::global();
  for (const Layer& l : net_.layers()) {
    const auto idx = static_cast<std::size_t>(l.id);
    const PackedLayer& pl = (*packed_)[idx];
    // Stage the batch's resident output tensors (and source pointers)
    // for this layer; steady state reconstructs nothing.
    in_ptrs_.clear();
    in_b_ptrs_.clear();
    out_ptrs_.clear();
    for (std::size_t b : active) {
      out_ptrs_.push_back(&slot(idx, b, l.out_dims));
      if (l.kind != LayerKind::kInput && l.kind != LayerKind::kConcat)
        in_ptrs_.push_back(
            &outputs_[static_cast<std::size_t>(l.inputs[0])][b]);
      if (l.kind == LayerKind::kEltwiseAdd)
        in_b_ptrs_.push_back(
            &outputs_[static_cast<std::size_t>(l.inputs[1])][b]);
    }
    const Clock::time_point t0 = Clock::now();
    switch (l.kind) {
      case LayerKind::kInput:
        for (i64 i = 0; i < nact; ++i)
          *out_ptrs_[static_cast<std::size_t>(i)] =
              *inputs[active[static_cast<std::size_t>(i)]];
        break;
      case LayerKind::kConv:
        conv2d_func_batch(in_ptrs_, pl.weights, pl.bias_acc, l.conv(),
                          pl.exact, scratch_, out_ptrs_);
        break;
      case LayerKind::kFC:
        fc_func_batch(in_ptrs_, pl.weights, pl.bias_acc, l.fc(), pl.exact,
                      scratch_, out_ptrs_);
        break;
      case LayerKind::kPool:
        pool_func_batch(in_ptrs_, l.pool(), out_ptrs_);
        break;
      case LayerKind::kLRN:
        lrn_func_batch(in_ptrs_, l.lrn(), out_ptrs_);
        break;
      case LayerKind::kConcat:
        for (i64 i = 0; i < nact; ++i) {
          const std::size_t b = active[static_cast<std::size_t>(i)];
          std::vector<const Tensor3<Fixed16>*> ins;
          ins.reserve(l.inputs.size());
          for (LayerId id : l.inputs)
            ins.push_back(&outputs_[static_cast<std::size_t>(id)][b]);
          concat_ref_into(ins, *out_ptrs_[static_cast<std::size_t>(i)]);
        }
        break;
      case LayerKind::kSoftmax:
        for (i64 i = 0; i < nact; ++i)
          softmax_ref_into(*in_ptrs_[static_cast<std::size_t>(i)],
                           *out_ptrs_[static_cast<std::size_t>(i)]);
        break;
      case LayerKind::kEltwiseAdd:
        eltwise_add_func_batch(in_ptrs_, in_b_ptrs_, l.eltwise(),
                               out_ptrs_);
        break;
    }
    // Per-kind host wall time: where the functional tier actually spends
    // its milliseconds, as opposed to the modelled accelerator cycles.
    reg.counter(std::string("func.wall_us.") + layer_kind_name(l.kind))
        .inc(std::chrono::duration_cast<std::chrono::microseconds>(
                 Clock::now() - t0)
                 .count());
    for (std::size_t b : active) {
      if (results[b].per_layer.empty())
        results[b].per_layer.resize(static_cast<std::size_t>(net_.size()));
      results[b].per_layer[idx] = model_.layer(l.id).counters;
    }
  }
  for (std::size_t b : active)
    results[b].final_output = outputs_.back()[b];

  // Mirror of SimExecutor's observability under the functional tier's
  // prefix; cycle numbers are the model estimates, scaled by the number
  // of images that actually ran.
  i64 cycles = 0, dram_r = 0, dram_w = 0, muls = 0;
  for (const Layer& l : net_.layers()) {
    const TrafficCounters& lc = model_.layer(l.id).counters;
    cycles += lc.total_cycles;
    dram_r += lc.dram_reads;
    dram_w += lc.dram_writes;
    muls += lc.mul_ops;
  }
  reg.counter("func.infers_total").inc(nact);
  reg.counter("func.cycles_total").inc(cycles * nact);
  reg.counter("func.dram_reads_total").inc(dram_r * nact);
  reg.counter("func.dram_writes_total").inc(dram_w * nact);
  reg.counter("func.mul_ops_total").inc(muls * nact);

  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    // Same span shape as the sim tier (depth-0 infer, depth-1 layers in
    // the cycle domain), one track per image — a batch of B traces
    // exactly like B sequential infers; edges from the model's
    // estimates, a pure function of (net, compiled, config), hence
    // byte-deterministic.
    for (i64 img = 0; img < nact; ++img) {
      const int track = tracer.add_track(obs::Domain::kCycles,
                                         "func:" + net_.name());
      i64 cursor = 0;
      for (const Layer& l : net_.layers()) {
        const LayerModelResult& lm = model_.layer(l.id);
        if (lm.counters.total_cycles <= 0) continue;
        obs::Span s;
        s.track = track;
        s.depth = 1;
        s.start = cursor;
        s.dur = lm.counters.total_cycles;
        s.name = l.name;
        s.cat = layer_kind_name(l.kind);
        s.args.emplace_back("tier", "functional");
        if (l.is_conv())
          s.args.emplace_back("scheme", scheme_name(lm.scheme));
        tracer.record(std::move(s));
        cursor += lm.counters.total_cycles;
      }
      obs::Span s;
      s.track = track;
      s.depth = 0;
      s.start = 0;
      s.dur = cursor;
      s.name = "infer:" + net_.name();
      s.cat = "infer";
      s.args.emplace_back("tier", "functional");
      tracer.record(std::move(s));
    }
  }
  return results;
}

const Tensor3<Fixed16>& FuncExecutor::output(LayerId id) const {
  CBRAIN_CHECK(id >= 0 && id < static_cast<i64>(outputs_.size()),
               "no output for layer " << id);
  const auto& per_image = outputs_[static_cast<std::size_t>(id)];
  CBRAIN_CHECK(!per_image.empty() && !per_image.front().empty(),
               "layer " << id << " has not been executed");
  return per_image.front();
}

}  // namespace cbrain::func
