// The simulated accelerator: the Fig. 2 block diagram as objects. Owns the
// on-chip buffers, the external memory, the DMA engines and the PE array;
// the executor (sim/executor) is the control unit that interprets the
// macro-instruction stream against it.
#pragma once

#include <memory>

#include "cbrain/arch/config.hpp"
#include "cbrain/arch/dma.hpp"
#include "cbrain/arch/dram.hpp"
#include "cbrain/arch/pe_array.hpp"
#include "cbrain/arch/sram.hpp"

namespace cbrain {

class SimMachine {
 public:
  SimMachine(const AcceleratorConfig& config, i64 dram_words);

  const AcceleratorConfig& config() const { return config_; }

  Dram& dram() { return dram_; }
  const Dram& dram() const { return dram_; }
  Sram16& input_buf() { return input_; }
  Sram16& weight_buf() { return weight_; }
  Sram16& bias_buf() { return bias_; }
  AccumSram& output_buf() { return output_; }
  DmaEngine& dma() { return dma_; }
  PEArray& pe() { return pe_; }

  // Attaches (or with nullptr detaches) a fault injector to every
  // component in one call; the executor adds its own replay machinery on
  // top (see sim/executor).
  void attach_fault(FaultInjector* injector) {
    input_.attach_fault(injector, FaultSite::kInputSram);
    weight_.attach_fault(injector, FaultSite::kWeightSram);
    bias_.attach_fault(injector, FaultSite::kBiasSram);
    output_.attach_fault(injector);
    dram_.attach_fault(injector);
    dma_.attach_fault(injector);
    pe_.attach_fault(injector);
  }

 private:
  AcceleratorConfig config_;
  Dram dram_;
  // The InOut buffer is one physical 2 MiB array shared by the input band
  // and the output partials; we model the two roles as separate objects
  // sized at the full capacity each — the compiler's tiler enforces the
  // combined budget, and the executor re-checks it per tile.
  Sram16 input_;
  Sram16 weight_;
  Sram16 bias_;
  AccumSram output_;
  DmaEngine dma_;
  PEArray pe_;
};

}  // namespace cbrain
