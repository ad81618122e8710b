#include "cbrain/isa/program.hpp"

namespace cbrain {

std::pair<i64, i64> Program::layer_range(LayerId layer) const {
  const auto b = layer_begin_.find(layer);
  const auto e = layer_end_.find(layer);
  if (b == layer_begin_.end() || e == layer_end_.end()) return {0, 0};
  return {b->second, e->second};
}

ProgramStats Program::stats() const {
  ProgramStats s;
  s.instructions = size();
  for (const Instruction& instr : instrs_) {
    if (const auto* load = std::get_if<LoadInstr>(&instr)) {
      ++s.loads;
      s.load_words += load->words;
    } else if (std::holds_alternative<ConvTileInstr>(instr)) {
      ++s.conv_tiles;
    } else if (std::holds_alternative<PoolTileInstr>(instr)) {
      ++s.pool_tiles;
    } else if (std::holds_alternative<FcTileInstr>(instr)) {
      ++s.fc_tiles;
    } else if (std::holds_alternative<HostOpInstr>(instr)) {
      ++s.host_ops;
    } else if (std::holds_alternative<BarrierInstr>(instr)) {
      ++s.barriers;
    } else if (std::holds_alternative<EltwiseTileInstr>(instr)) {
      ++s.eltwise_tiles;
    }
  }
  return s;
}

}  // namespace cbrain
