// Network-level analytical model: walks a compiled Program, costing each
// instruction with the closed forms of scheme_models and reconciling
// compute/DMA overlap per double-buffer phase on the PhaseClock the
// simulator also uses (arch/phase_clock.hpp). Produces the per-layer and
// whole-network numbers behind Figs. 7-10 and Tables 4-5.
#pragma once

#include <string>
#include <vector>

#include "cbrain/arch/energy_model.hpp"
#include "cbrain/compiler/compiler.hpp"

namespace cbrain {

namespace obs {
struct TraceData;
}  // namespace obs

struct ModelOptions {
  // The paper's evaluation covers the kernel-level pipeline ("whole NN" =
  // conv + pool (+LRN); FC layers stream tens of MB of weights and are
  // excluded there — see DESIGN.md §2). Both are available.
  bool include_fc = false;
  bool include_host_ops = true;  // LRN on the activation unit
  // Batched inference (extension): `batch` images processed with a
  // batch-innermost tile loop — each weight tile is DMA-loaded once and
  // reused by all images while activations re-stream per image. Weight
  // DRAM traffic amortizes by the batch size (the classic FC-layer win);
  // everything on-chip scales linearly. Counters and cycles are for the
  // whole batch; divide by `batch` for per-image numbers.
  i64 batch = 1;
  EnergyParams energy;
};

struct LayerModelResult {
  LayerId id = -1;
  std::string name;
  LayerKind kind = LayerKind::kInput;
  Scheme scheme = Scheme::kInter;  // meaningful for conv layers
  i64 macs = 0;
  TrafficCounters counters;
  EnergyBreakdown energy;
  bool counted = false;  // included in network totals per ModelOptions

  // Fraction of multiplier slots doing useful work during busy cycles.
  double utilization() const {
    const double slots = static_cast<double>(counters.mul_ops) +
                         static_cast<double>(counters.idle_mul_slots);
    return slots > 0 ? static_cast<double>(counters.mul_ops) / slots : 0.0;
  }
};

struct NetworkModelResult {
  std::string network;
  Policy policy = Policy::kAdaptive2;
  AcceleratorConfig config;
  std::vector<LayerModelResult> layers;  // indexed by LayerId
  TrafficCounters totals;                // counted layers only
  EnergyBreakdown energy;

  i64 cycles() const { return totals.total_cycles; }
  double milliseconds() const { return config.cycles_to_ms(cycles()); }

  const LayerModelResult& layer(LayerId id) const {
    return layers[static_cast<std::size_t>(id)];
  }
  // First conv layer's result (the Fig. 7 subject).
  const LayerModelResult& conv1() const;
};

// Models an already-compiled network. When `spans` is non-null it is
// overwritten with the modelled timeline in the simulator's span schema: a
// "model:<net>" track holding a depth-0 whole-net span, depth-1 layer
// spans (cat "layer", args compute_cycles/stall_cycles) and depth-2
// "compute"/"host" phase spans, plus a "model:<net> dma" track with one
// span per phase's queued DMA. render_span_timeline and
// to_chrome_trace_json consume it directly.
NetworkModelResult model_network(const Network& net,
                                 const CompiledNetwork& compiled,
                                 const AcceleratorConfig& config,
                                 const ModelOptions& options = {},
                                 obs::TraceData* spans = nullptr);

// Convenience: compile + model. CHECK-fails if compilation fails.
NetworkModelResult model_network(const Network& net, Policy policy,
                                 const AcceleratorConfig& config,
                                 const ModelOptions& options = {});

// Upper-bound (100% utilization, perfect alignment) cycles for the
// network's counted layers — Fig. 7/8's "ideal" series. Conv layers count
// at the bound; the other layers are scheme-independent and count their
// compute cycles from `adaptive2`, which must be the net's adap-2 model
// under `config` and the model options the bound is for.
i64 ideal_network_cycles(const Network& net,
                         const NetworkModelResult& adaptive2,
                         const AcceleratorConfig& config);

// Convenience: compiles and models adap-2, then takes the bound above.
i64 ideal_network_cycles(const Network& net, const AcceleratorConfig& config,
                         const ModelOptions& options = {});

}  // namespace cbrain
