// Human-readable rendering of programs — the debugging view of what the
// compiler emitted for each layer/tile.
#pragma once

#include <string>

#include "cbrain/isa/program.hpp"
#include "cbrain/nn/network.hpp"

namespace cbrain {

// The label of record `index` of `program`, emitted for layer `owner`
// (the layer whose Program::layer_range holds the index). It is derived
// from the record's fields and the layer, never stored:
//   conv tile  "<name> g<group> r<row0>+<rows> o<dout0>+<douts>
//               i<din0>+<dins>", output/input maps relative to the group;
//   load       "<name> weights|bias|band|input chunk|band a|band b", the
//              role read from the destination buffer and the layer kind;
//   host op    "<name> im2col" for the unroll staging pass, else "<name>";
//   other tile "<name>";
//   barrier    the label of the record it guards (always the next one).
std::string instruction_label(const Program& program, i64 index,
                              const Layer& owner);

// One record's text, without its label.
std::string disassemble(const Instruction& instr);
// The listing of `program` as compiled from `net`, one labelled record
// per line; at most `max_instructions` lines (all when negative).
std::string disassemble(const Program& program, const Network& net,
                        i64 max_instructions = -1);

}  // namespace cbrain
