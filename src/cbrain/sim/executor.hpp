// The control unit: interprets a compiled Program cycle-accurately and
// functionally — every multiply happens on simulated buffer contents at
// 16-bit fixed point, so the final tensors can be compared bit-for-bit
// against the reference executor while the counters are compared against
// the analytical model. This is the "Synopsys VCS simulation" substitute
// of this reproduction (DESIGN.md §2).
#pragma once

#include <vector>

#include "cbrain/arch/counters.hpp"
#include "cbrain/compiler/compiler.hpp"
#include "cbrain/ref/params.hpp"
#include "cbrain/sim/machine.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain {

struct SimResult {
  std::vector<TrafficCounters> per_layer;  // indexed by LayerId
  Tensor3<Fixed16> final_output;           // the result cube, logical dims

  TrafficCounters layer_total(LayerId id) const {
    return per_layer[static_cast<std::size_t>(id)];
  }
};

class SimExecutor {
 public:
  SimExecutor(const Network& net, const CompiledNetwork& compiled,
              const AcceleratorConfig& config);

  // One-shot convenience: load_params(params) then infer(input). The
  // historical single-call path — bit- and counter-identical to the
  // explicit two-step sequence below.
  SimResult run(const Tensor3<Fixed16>& input,
                const NetParamsData<Fixed16>& params);

  // Materializes every layer's weights and biases into simulated DRAM.
  // Called once per set of parameters; subsequent infer() calls reuse the
  // resident weights (the inference-serving split — engine::Session).
  void load_params(const NetParamsData<Fixed16>& params);

  // Streams one input image through the already-loaded machine.
  // Requires load_params() first. Repeated calls are independent: every
  // word an inference reads is either written by that same inference,
  // parameter data from load_params(), or never-written zero padding, so
  // infer(x) returns bit-identical tensors and counters no matter how
  // many inferences ran before it (tests/test_engine.cpp).
  SimResult infer(const Tensor3<Fixed16>& input);

  bool params_loaded() const { return params_loaded_; }

  // Weight loads an injector-free inference leaves in DRAM: each feeds
  // one FC tile that reads its rows there, and no other tile reads the
  // load's buffer window before a later load rewrites it. Counters,
  // traces and outputs are those of the copy, which every other load,
  // and every load of a run with an injector attached, still makes.
  i64 in_place_loads() const;

  // Attaches a fault injector to every machine component and enables the
  // executor's macro-instruction checkpoint/replay recovery. Pass nullptr
  // to detach; with no injector the simulation is bit- and
  // counter-identical to a build without the fault subsystem.
  void attach_fault(FaultInjector* injector);

  // Reads back the logical (unpadded) contents of a layer's input cube —
  // i.e. what that layer consumed — for validation against the reference.
  Tensor3<Fixed16> read_input_cube(LayerId id) const;

  const SimMachine& machine() const { return *machine_; }

 private:
  const Network& net_;
  const CompiledNetwork& compiled_;
  std::vector<bool> in_place_;  // by program index
  std::unique_ptr<SimMachine> machine_;
  FaultInjector* fault_ = nullptr;
  bool params_loaded_ = false;
};

}  // namespace cbrain
