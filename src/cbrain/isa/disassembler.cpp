#include "cbrain/isa/disassembler.hpp"

#include <algorithm>
#include <sstream>

#include "cbrain/compiler/scheme.hpp"

namespace cbrain {
namespace {

// What a load fills, named from its destination buffer and, for the
// input buffer, the owning layer's kind (an add stages operand b after a).
const char* load_role(const LoadInstr& li, const Layer& owner) {
  if (li.dst == BufferId::kWeight) return "weights";
  if (li.dst == BufferId::kBias) return "bias";
  switch (owner.kind) {
    case LayerKind::kFC:
      return "input chunk";
    case LayerKind::kEltwiseAdd:
      return li.dst_addr == 0 ? "band a" : "band b";
    default:
      return "band";
  }
}

// "<name> g<group> r<row0>+<rows> o<dout0>+<douts> i<din0>+<dins>", the
// map ranges relative to the tile's conv group.
std::string conv_label(const ConvTileInstr& t, const Layer& owner) {
  const ConvParams& p = owner.conv();
  const i64 dout_g = p.dout_per_group();
  const i64 din_g = p.din_per_group(owner.in_dims.d);
  const i64 group = t.dout0 / dout_g;
  std::string s = owner.name;
  const auto put = [&s](const char* sep, i64 v) {
    s += sep;
    s += std::to_string(v);
  };
  put(" g", group);
  put(" r", t.out_row0);
  put("+", t.out_row1 - t.out_row0);
  put(" o", t.dout0 - group * dout_g);
  put("+", t.dout1 - t.dout0);
  put(" i", t.din0 - group * din_g);
  put("+", t.din1 - t.din0);
  return s;
}

struct Disasm {
  std::ostringstream os;

  void operator()(const LoadInstr& i) {
    os << "LOAD  " << buffer_id_name(i.dst) << "[" << i.dst_addr << ".."
       << i.dst_addr + i.words << ") <- dram[" << i.src << "] ("
       << i.words << "w)";
  }
  void operator()(const ConvTileInstr& i) {
    os << "CONV  L" << i.layer << " " << scheme_name(i.scheme) << " rows["
       << i.out_row0 << "," << i.out_row1 << ") dout[" << i.dout0 << ","
       << i.dout1 << ") din[" << i.din0 << "," << i.din1 << ") k=" << i.k
       << " s=" << i.stride;
    if (i.dilation != 1) os << " d=" << i.dilation;
    if (i.scheme == Scheme::kPartition || i.scheme == Scheme::kIntraSliding)
      os << " g=" << i.part.g << " ks=" << i.part.ks;
    if (i.first_din_chunk) os << " [init]";
    if (i.last_din_chunk) os << " [fin]";
  }
  void operator()(const PoolTileInstr& i) {
    os << "POOL  L" << i.layer
       << (i.kind == PoolKind::kMax ? " max" : " avg") << " rows["
       << i.out_row0 << "," << i.out_row1 << ") d[" << i.d0 << "," << i.d1
       << ") p=" << i.p << " s=" << i.stride;
  }
  void operator()(const FcTileInstr& i) {
    os << "FC    L" << i.layer << " dout[" << i.dout0 << "," << i.dout1
       << ") din=" << i.din;
  }
  void operator()(const HostOpInstr& i) {
    const char* kind = i.kind == HostOpKind::kLrn       ? "lrn"
                       : i.kind == HostOpKind::kSoftmax ? "softmax"
                                                        : "unroll";
    os << "HOST  L" << i.layer << " " << kind << " " << i.words << "w";
  }
  void operator()(const BarrierInstr&) { os << "BAR"; }
  void operator()(const EltwiseTileInstr& i) {
    os << "ADD   L" << i.layer << " rows[" << i.out_row0 << ","
       << i.out_row1 << ") d[" << i.d0 << "," << i.d1 << ")";
    if (!i.relu) os << " linear";
  }
};

}  // namespace

std::string instruction_label(const Program& program, i64 index,
                              const Layer& owner) {
  const Instruction& instr = program.at(index);
  if (std::holds_alternative<BarrierInstr>(instr))
    return index + 1 < program.size()
               ? instruction_label(program, index + 1, owner)
               : owner.name;
  if (const auto* conv = std::get_if<ConvTileInstr>(&instr))
    return conv_label(*conv, owner);
  if (const auto* load = std::get_if<LoadInstr>(&instr))
    return owner.name + " " + load_role(*load, owner);
  if (const auto* host = std::get_if<HostOpInstr>(&instr);
      host != nullptr && host->kind == HostOpKind::kUnroll)
    return owner.name + " im2col";
  return owner.name;
}

std::string disassemble(const Instruction& instr) {
  Disasm d;
  std::visit(d, instr);
  return d.os.str();
}

std::string disassemble(const Program& program, const Network& net,
                        i64 max_instructions) {
  const i64 n = max_instructions < 0
                    ? program.size()
                    : std::min(max_instructions, program.size());
  // The layer that emitted each listed record; records in no layer's
  // range print unlabelled.
  std::vector<const Layer*> owner(static_cast<std::size_t>(n), nullptr);
  for (const Layer& l : net.layers()) {
    const auto [b, e] = program.layer_range(l.id);
    for (i64 i = std::max<i64>(b, 0); i < std::min(e, n); ++i)
      owner[static_cast<std::size_t>(i)] = &l;
  }
  std::ostringstream os;
  for (i64 i = 0; i < n; ++i) {
    const Instruction& instr = program.at(i);
    os << i << ": " << disassemble(instr);
    if (const Layer* l = owner[static_cast<std::size_t>(i)]) {
      const std::string label = instruction_label(program, i, *l);
      if (!label.empty())
        os << (std::holds_alternative<BarrierInstr>(instr) ? "   ; " : "  ; ")
           << label;
    }
    os << '\n';
  }
  if (n < program.size())
    os << "... (" << program.size() - n << " more)\n";
  return os.str();
}

}  // namespace cbrain
