#include "cbrain/model/network_model.hpp"

#include <algorithm>

#include "cbrain/arch/phase_clock.hpp"
#include "cbrain/isa/disassembler.hpp"
#include "cbrain/model/scheme_models.hpp"
#include "cbrain/obs/tracer.hpp"

namespace cbrain {
namespace {

bool layer_counted(LayerKind kind, const ModelOptions& opt) {
  switch (kind) {
    case LayerKind::kConv:
    case LayerKind::kPool:
    case LayerKind::kEltwiseAdd:
      return true;
    case LayerKind::kLRN:
      return opt.include_host_ops;
    case LayerKind::kFC:
    case LayerKind::kSoftmax:
      return opt.include_fc;
    case LayerKind::kInput:
    case LayerKind::kConcat:
      return false;
  }
  return false;
}

void add_buffer_fill(TrafficCounters& c, BufferId dst, i64 words) {
  switch (dst) {
    case BufferId::kInput:
      c.input_writes += words;
      break;
    case BufferId::kOutput:
      c.output_writes += words;
      break;
    case BufferId::kWeight:
      c.weight_writes += words;
      break;
    case BufferId::kBias:
      c.bias_writes += words;
      break;
  }
}

obs::Span model_span(int track, int depth, i64 start, i64 dur,
                     std::string name, const char* cat) {
  obs::Span s;
  s.track = track;
  s.depth = depth;
  s.start = start;
  s.dur = dur;
  s.name = std::move(name);
  s.cat = cat;
  return s;
}

}  // namespace

const LayerModelResult& NetworkModelResult::conv1() const {
  for (const LayerModelResult& l : layers)
    if (l.kind == LayerKind::kConv) return l;
  CBRAIN_CHECK(false, "network has no conv layer");
  return layers.front();
}

NetworkModelResult model_network(const Network& net,
                                 const CompiledNetwork& compiled,
                                 const AcceleratorConfig& config,
                                 const ModelOptions& options,
                                 obs::TraceData* spans) {
  NetworkModelResult result;
  result.network = net.name();
  result.policy = compiled.policy;
  result.config = config;
  result.layers.resize(static_cast<std::size_t>(net.size()));

  constexpr int kModelTrack = 0;
  constexpr int kDmaTrack = 1;
  if (spans != nullptr) {
    *spans = {};
    spans->tracks = {
        {kModelTrack, obs::Domain::kCycles, "model:" + net.name()},
        {kDmaTrack, obs::Domain::kCycles, "model:" + net.name() + " dma"}};
    // The whole-net span; its duration is known after the walk.
    spans->spans.push_back(model_span(kModelTrack, 0, 0, 0,
                                      "timeline:" + net.name(), "timeline"));
  }

  PhaseClock clock;
  for (const Layer& l : net.layers()) {
    LayerModelResult& lr = result.layers[static_cast<std::size_t>(l.id)];
    lr.id = l.id;
    lr.name = l.name;
    lr.kind = l.kind;
    lr.scheme = compiled.layout.scheme_of(l.id);
    lr.macs = l.macs();
    lr.counted = layer_counted(l.kind, options);

    const auto [begin, end] = compiled.program.layer_range(l.id);
    // Consumer cubes every finalized output word is stored to.
    const i64 ncons = static_cast<i64>(
        compiled.layout.out_maps[static_cast<std::size_t>(l.id)].size());
    const i64 batch = std::max<i64>(1, options.batch);
    const i64 layer_start = clock.now();
    i64 dma_first = -1;  // first load of the open phase
    // Retires the phase whose compute is record `at` (-1: none); spans
    // are named by the records' labels.
    auto retire = [&](i64 compute, i64 serial, i64 at) {
      const i64 dma = clock.pending_dma();
      const i64 start = clock.retire(compute, serial);
      if (spans != nullptr) {
        const auto label = [&](i64 i) {
          return instruction_label(compiled.program, i, l);
        };
        if (dma > 0)
          spans->spans.push_back(model_span(kDmaTrack, 0, start, dma,
                                            label(dma_first), "dma"));
        if (compute > 0)
          spans->spans.push_back(model_span(kModelTrack, 2, start, compute,
                                            label(at), "compute"));
        if (serial > 0)
          spans->spans.push_back(model_span(kModelTrack, 2,
                                            clock.now() - serial, serial,
                                            label(at), "host"));
      }
      dma_first = -1;
    };
    for (i64 i = begin; i < end; ++i) {
      const Instruction& instr = compiled.program.at(i);
      if (const auto* load = std::get_if<LoadInstr>(&instr)) {
        // Batch-innermost tiling: weight/bias tiles are fetched once and
        // reused by every image of the batch; activations re-stream.
        const bool amortized = load->dst == BufferId::kWeight ||
                               load->dst == BufferId::kBias;
        const i64 repeat = amortized ? 1 : batch;
        lr.counters.dram_reads += load->words * repeat;
        add_buffer_fill(lr.counters, load->dst, load->words * repeat);
        clock.load(config.dram.transfer_cycles_pattern(
                       load->chunks, load->chunk_words, load->src_stride) *
                   repeat);
        if (dma_first < 0) dma_first = i;
        continue;
      }
      if (std::holds_alternative<BarrierInstr>(instr)) continue;

      TrafficCounters tc;
      if (const auto* conv = std::get_if<ConvTileInstr>(&instr)) {
        tc = model_conv_tile(*conv, config, ncons);
      } else if (const auto* pool = std::get_if<PoolTileInstr>(&instr)) {
        tc = model_pool_tile(*pool, config, ncons);
      } else if (const auto* fc = std::get_if<FcTileInstr>(&instr)) {
        tc = model_fc_tile(*fc, config, ncons);
      } else if (const auto* elt = std::get_if<EltwiseTileInstr>(&instr)) {
        tc = model_eltwise_tile(*elt, config, ncons);
      } else if (const auto* host = std::get_if<HostOpInstr>(&instr)) {
        switch (host->kind) {
          case HostOpKind::kUnroll:
            // Host im2col: reads the raw cube, writes the staging cube.
            // The staging pass is serialized before the layer's tiles
            // ("relies on a host processor ... at considerable overhead",
            // §4.1.2) and runs at DRAM speed.
            tc.dram_reads += l.in_dims.count();
            tc.dram_writes += host->words;
            tc.total_cycles += config.dram.transfer_cycles(
                l.in_dims.count() + host->words);
            break;
          case HostOpKind::kLrn:
            // Activation-function unit: Tout elements per cycle, in and
            // out through DRAM (host-adjacent streaming pass).
            tc.dram_reads += host->words;
            tc.dram_writes += host->words * std::max<i64>(1, ncons);
            tc.compute_cycles += ceil_div(host->words, config.tout);
            break;
          case HostOpKind::kSoftmax:
            tc.dram_reads += host->words;
            tc.dram_writes += host->words * std::max<i64>(1, ncons);
            break;
        }
      }
      // Per-instruction costs are per image: scale on-chip work by the
      // batch (weight DMA already stayed un-scaled above).
      if (batch > 1) tc.scale(batch);
      // Any total_cycles the instruction model carries (host staging) is
      // serial time after the overlapped phase.
      const i64 compute = tc.compute_cycles;
      const i64 serial =
          std::holds_alternative<HostOpInstr>(instr) ? tc.total_cycles : 0;
      tc.total_cycles = 0;
      lr.counters += tc;
      retire(compute, serial, i);
    }
    // Transfers with no following compute in this layer (possible for
    // layers whose final loads feed the next layer's first tile).
    if (clock.pending_dma() > 0) retire(0, 0, -1);
    lr.counters.total_cycles = clock.now() - layer_start;

    if (spans != nullptr && lr.counters.total_cycles > 0) {
      obs::Span s = model_span(kModelTrack, 1, layer_start,
                               lr.counters.total_cycles, l.name, "layer");
      s.args.emplace_back("compute_cycles",
                          std::to_string(lr.counters.compute_cycles));
      s.args.emplace_back(
          "stall_cycles",
          std::to_string(std::max<i64>(
              0, lr.counters.total_cycles - lr.counters.compute_cycles)));
      spans->spans.push_back(std::move(s));
    }
    lr.energy = compute_energy(lr.counters, options.energy);
    if (lr.counted) {
      result.totals += lr.counters;
    }
  }
  result.energy = compute_energy(result.totals, options.energy);

  if (spans != nullptr) spans->spans.front().dur = clock.now();
  return result;
}

NetworkModelResult model_network(const Network& net, Policy policy,
                                 const AcceleratorConfig& config,
                                 const ModelOptions& options) {
  auto compiled = compile_network(net, policy, config);
  CBRAIN_CHECK(compiled.is_ok(),
               "compilation failed: " << compiled.status().to_string());
  return model_network(net, compiled.value(), config, options);
}

i64 ideal_network_cycles(const Network& net,
                         const NetworkModelResult& adaptive2,
                         const AcceleratorConfig& config) {
  i64 cycles = 0;
  for (const Layer& l : net.layers()) {
    const LayerModelResult& lr = adaptive2.layer(l.id);
    if (!lr.counted) continue;
    if (l.is_conv())
      cycles += ideal_conv_cycles(l.macs(), config);
    else
      cycles += lr.counters.compute_cycles;
  }
  return cycles;
}

i64 ideal_network_cycles(const Network& net, const AcceleratorConfig& config,
                         const ModelOptions& options) {
  return ideal_network_cycles(
      net, model_network(net, Policy::kAdaptive2, config, options), config);
}

}  // namespace cbrain
