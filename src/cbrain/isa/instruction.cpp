#include "cbrain/isa/instruction.hpp"

namespace cbrain {

const char* buffer_id_name(BufferId id) {
  switch (id) {
    case BufferId::kInput:
      return "in";
    case BufferId::kOutput:
      return "out";
    case BufferId::kWeight:
      return "wgt";
    case BufferId::kBias:
      return "bias";
  }
  return "?";
}

const char* instruction_name(const Instruction& instr) {
  struct Visitor {
    const char* operator()(const LoadInstr&) const { return "LOAD"; }
    const char* operator()(const ConvTileInstr&) const { return "CONV"; }
    const char* operator()(const PoolTileInstr&) const { return "POOL"; }
    const char* operator()(const FcTileInstr&) const { return "FC"; }
    const char* operator()(const HostOpInstr&) const { return "HOST"; }
    const char* operator()(const BarrierInstr&) const { return "BAR"; }
    const char* operator()(const EltwiseTileInstr&) const { return "ADD"; }
  };
  return std::visit(Visitor{}, instr);
}

}  // namespace cbrain
