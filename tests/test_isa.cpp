// ISA layer tests: program structure, per-layer attribution, load-word
// consistency, conv tile labels and the disassembler.
#include <gtest/gtest.h>

#include <sstream>

#include "cbrain/compiler/compiler.hpp"
#include "cbrain/isa/disassembler.hpp"
#include "cbrain/nn/zoo.hpp"

namespace cbrain {
namespace {

const AcceleratorConfig kCfg = AcceleratorConfig::paper_16_16();

TEST(Program, StatsCountInstructionKinds) {
  const auto compiled =
      compile_network(zoo::tiny_cnn(), Policy::kAdaptive2, kCfg);
  ASSERT_TRUE(compiled.is_ok());
  const ProgramStats s = compiled.value().program.stats();
  EXPECT_GT(s.loads, 0);
  EXPECT_GT(s.conv_tiles, 0);
  EXPECT_GT(s.pool_tiles, 0);
  EXPECT_GT(s.fc_tiles, 0);
  EXPECT_EQ(s.host_ops, 1);  // softmax
  EXPECT_GT(s.barriers, 0);
  EXPECT_EQ(s.instructions, s.loads + s.conv_tiles + s.pool_tiles +
                                s.fc_tiles + s.host_ops + s.barriers);
}

TEST(Program, LayerRangesPartitionTheProgram) {
  const Network net = zoo::tiny_cnn();
  const auto compiled = compile_network(net, Policy::kAdaptive2, kCfg);
  ASSERT_TRUE(compiled.is_ok());
  const Program& prog = compiled.value().program;
  i64 covered = 0;
  i64 prev_end = 0;
  for (const Layer& l : net.layers()) {
    const auto [b, e] = prog.layer_range(l.id);
    EXPECT_EQ(b, prev_end) << l.name;  // contiguous, in layer order
    EXPECT_LE(b, e);
    covered += e - b;
    prev_end = e;
  }
  EXPECT_EQ(covered, prog.size());
  EXPECT_EQ(prog.layer_range(999).first, 0);
  EXPECT_EQ(prog.layer_range(999).second, 0);
}

TEST(Program, LoadWordsAreChunkConsistent) {
  const auto compiled =
      compile_network(zoo::mini_inception(), Policy::kAdaptive2, kCfg);
  ASSERT_TRUE(compiled.is_ok());
  for (const Instruction& instr : compiled.value().program.instructions()) {
    if (const auto* load = std::get_if<LoadInstr>(&instr)) {
      EXPECT_EQ(load->words, load->chunks * load->chunk_words);
      EXPECT_GT(load->words, 0);
      if (load->chunks > 1) {
        EXPECT_GE(load->src_stride, load->chunk_words);  // no overlap
      }
    }
  }
}

// A conv tile's label built independently, with a stream formatter from
// the tiler's spec: the reference the rendered label must match.
std::string stream_tile_tag(const Layer& l, const ConvTileSpec& t) {
  std::ostringstream os;
  os << l.name << " g" << t.group << " r" << t.row0 << "+" << t.rows << " o"
     << t.dout0 << "+" << t.douts << " i" << t.din0 << "+" << t.dins;
  return os.str();
}

TEST(Compiler, TileTagsMatchStreamFormat) {
  // 4 KiB In/Out forces din chunks and row bands. AlexNet's conv1 tiles
  // under no scheme there, and MobileNetV1 grows to 3M instructions, so
  // they run at 16-16 only (MobileNetV1's depthwise groups reach 1023).
  AcceleratorConfig small_io = kCfg;
  small_io.inout_buf.size_bytes = 4 * 1024;
  const struct {
    Network net;
    AcceleratorConfig cfg;
  } kCases[] = {{zoo::mobilenetv1(), kCfg},     {zoo::alexnet(), kCfg},
                {zoo::mini_inception(), kCfg},  {zoo::scheme_mix_cnn(), kCfg},
                {zoo::mini_inception(), small_io},
                {zoo::scheme_mix_cnn(), small_io}};
  const Policy kPolicies[] = {Policy::kFixedInter, Policy::kFixedIntra,
                              Policy::kFixedPartition, Policy::kAdaptive1,
                              Policy::kAdaptive2};
  i64 tiles = 0, barriers = 0, chunked = 0, banded = 0, grouped = 0;
  for (const auto& [net, cfg] : kCases)
    for (const Policy policy : kPolicies) {
      SCOPED_TRACE(net.name() + " " + policy_name(policy));
      const auto compiled = compile_network(net, policy, cfg);
      ASSERT_TRUE(compiled.is_ok());
      const CompiledNetwork& c = compiled.value();
      const auto& instrs = c.program.instructions();
      for (const Layer& l : net.layers()) {
        if (!l.is_conv()) continue;
        const auto& plan = c.conv_plans[static_cast<std::size_t>(l.id)];
        const auto [b, e] = c.program.layer_range(l.id);
        std::size_t next = 0;
        i64 barrier = -1;
        for (i64 i = b; i < e; ++i) {
          const Instruction& instr = instrs[static_cast<std::size_t>(i)];
          if (std::holds_alternative<BarrierInstr>(instr)) {
            barrier = i;
            continue;
          }
          if (!std::holds_alternative<ConvTileInstr>(instr)) continue;
          ASSERT_LT(next, plan.tiles.size()) << l.name;
          const ConvTileSpec& t = plan.tiles[next++];
          const std::string want = stream_tile_tag(l, t);
          EXPECT_EQ(instruction_label(c.program, i, l), want);
          if (barrier >= 0) {
            EXPECT_EQ(instruction_label(c.program, barrier, l), want);
            ++barriers;
          }
          barrier = -1;
          ++tiles;
          chunked += t.din0 > 0;
          banded += t.row0 > 0;
          grouped += t.group > 0;
        }
        EXPECT_EQ(next, plan.tiles.size()) << l.name;
      }
    }
  // Every field took nonzero values somewhere, and so did the barriers.
  EXPECT_GT(tiles, 0);
  EXPECT_GT(barriers, 0);
  EXPECT_GT(chunked, 0);
  EXPECT_GT(banded, 0);
  EXPECT_GT(grouped, 0);
}

TEST(Disassembler, RendersEveryInstructionKind) {
  const Network net = zoo::tiny_cnn();
  const auto compiled = compile_network(net, Policy::kFixedIntra, kCfg);
  ASSERT_TRUE(compiled.is_ok());
  const std::string text = disassemble(compiled.value().program, net);
  EXPECT_NE(text.find("LOAD"), std::string::npos);
  EXPECT_NE(text.find("CONV"), std::string::npos);
  EXPECT_NE(text.find("POOL"), std::string::npos);
  EXPECT_NE(text.find("FC"), std::string::npos);
  EXPECT_NE(text.find("HOST"), std::string::npos);
  EXPECT_NE(text.find("BAR"), std::string::npos);
  EXPECT_NE(text.find("unroll"), std::string::npos);
  EXPECT_NE(text.find("intra-unroll"), std::string::npos);
}

TEST(Disassembler, TruncationMarker) {
  const Network net = zoo::tiny_cnn();
  const auto compiled = compile_network(net, Policy::kAdaptive2, kCfg);
  ASSERT_TRUE(compiled.is_ok());
  const std::string text = disassemble(compiled.value().program, net, 3);
  EXPECT_NE(text.find("more)"), std::string::npos);
}

TEST(Instruction, Names) {
  EXPECT_STREQ(instruction_name(Instruction{LoadInstr{}}), "LOAD");
  EXPECT_STREQ(instruction_name(Instruction{BarrierInstr{}}), "BAR");
  EXPECT_STREQ(instruction_name(Instruction{HostOpInstr{}}), "HOST");
  EXPECT_STREQ(buffer_id_name(BufferId::kWeight), "wgt");
}

}  // namespace
}  // namespace cbrain
