// ISA layer tests: program structure, per-layer attribution, load-word
// consistency, conv tile labels, the disassembler and the serialized
// stream.
#include <gtest/gtest.h>

#include <sstream>

#include "cbrain/common/rng.hpp"
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

// A small hand-built program hitting every instruction kind, non-default
// enums and non-trivial layer ranges — compact enough that the
// byte-level truncation sweep below stays O(small²).
Program sample_program() {
  Program p;
  p.begin_layer(0);
  LoadInstr load;
  load.dst = BufferId::kWeight;
  load.dst_addr = 12;
  load.src = 4096;
  load.words = 64;
  load.chunks = 4;
  load.chunk_words = 16;
  load.src_stride = 128;
  p.push(load);
  ConvTileInstr conv;
  conv.layer = 0;
  conv.scheme = Scheme::kPartition;
  conv.k = 5;
  conv.stride = 2;
  conv.part = {3, 2};
  conv.out_w = 7;
  conv.out_row1 = 7;
  conv.dout1 = 8;
  conv.din1 = 3;
  conv.band_rows = 5;
  conv.band_width = 17;
  conv.band_order = DataOrder::kDepthMajor;
  conv.first_din_chunk = false;
  p.push(conv);
  p.end_layer(0);
  p.begin_layer(1);
  PoolTileInstr pool;
  pool.layer = 1;
  pool.kind = PoolKind::kAvg;
  pool.p = 3;
  pool.in_h = 7;
  pool.in_w = 7;
  pool.out_w = 3;
  pool.d1 = 8;
  p.push(pool);
  FcTileInstr fc;
  fc.layer = 1;
  fc.din = 72;
  fc.din1 = 72;
  fc.dout1 = 10;
  fc.relu = false;
  p.push(fc);
  HostOpInstr host;
  host.layer = 1;
  host.kind = HostOpKind::kSoftmax;
  host.words = 10;
  p.push(host);
  p.push(BarrierInstr{});
  EltwiseTileInstr add;
  add.layer = 1;
  add.relu = false;
  add.out_w = 3;
  add.out_row1 = 3;
  add.d1 = 8;
  add.input_base_b = 72;
  add.band_rows = 3;
  add.band_width = 3;
  p.push(add);
  p.end_layer(1);
  return p;
}

// Every record's unlabelled text: a hand-built program has no network
// to label it from.
std::string record_text(const Program& p) {
  std::string text;
  for (const Instruction& instr : p.instructions())
    text += disassemble(instr) + "\n";
  return text;
}

TEST(ProgramSerialization, RoundTripIsExact) {
  const Program p = sample_program();
  const std::string bytes = p.serialize();
  const auto r = Program::deserialize(bytes);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Program& q = r.value();
  EXPECT_EQ(record_text(p), record_text(q));
  EXPECT_EQ(p.layer_range(0), q.layer_range(0));
  EXPECT_EQ(p.layer_range(1), q.layer_range(1));
  // Canonical encoding: re-serializing reproduces the same bytes.
  EXPECT_EQ(bytes, q.serialize());
}

TEST(ProgramSerialization, RoundTripsACompiledNetwork) {
  const Network net = zoo::scheme_mix_cnn();
  const auto compiled = compile_network(net, Policy::kAdaptive2, kCfg);
  ASSERT_TRUE(compiled.is_ok());
  const Program& p = compiled.value().program;
  const auto r = Program::deserialize(p.serialize());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(disassemble(p, net), disassemble(r.value(), net));
  EXPECT_EQ(p.serialize(), r.value().serialize());
}

// A barrier encodes as its opcode alone, so the instruction count may
// reach the remaining byte count.
TEST(ProgramSerialization, RoundTripsOneByteBarriers) {
  Program p;
  p.begin_layer(0);
  for (int i = 0; i < 100; ++i) p.push(BarrierInstr{});
  p.end_layer(0);
  const std::string bytes = p.serialize();
  const auto r = Program::deserialize(bytes);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  EXPECT_EQ(r.value().stats().barriers, 100);
  EXPECT_EQ(r.value().layer_range(0), (std::pair<i64, i64>{0, 100}));
  EXPECT_EQ(r.value().serialize(), bytes);
}

// Byte offsets in a serialized stream: magic, version, instruction count,
// then the first record's opcode.
constexpr std::size_t kVersionAt = 4;
constexpr std::size_t kFirstOpcodeAt = 20;

TEST(ProgramSerialization, RejectsVersion3Streams) {
  std::string bytes = sample_program().serialize();
  bytes[kVersionAt] = 3;
  const auto r = Program::deserialize(bytes);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("unsupported version 3"),
            std::string::npos)
      << r.status().to_string();
}

TEST(ProgramSerialization, RejectsTheRemovedOpcode7) {
  Program p;
  p.push(BarrierInstr{});
  std::string bytes = p.serialize();
  ASSERT_EQ(bytes[kFirstOpcodeAt], 5);  // the barrier's opcode
  bytes[kFirstOpcodeAt] = 7;
  const auto r = Program::deserialize(bytes);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("bad opcode 7"), std::string::npos)
      << r.status().to_string();
}

TEST(ProgramSerialization, EveryTruncationFailsWithStatus) {
  const std::string bytes = sample_program().serialize();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto r =
        Program::deserialize(std::string_view(bytes.data(), len));
    EXPECT_FALSE(r.is_ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(ProgramSerialization, RejectsGarbageWithoutCrashing) {
  EXPECT_FALSE(Program::deserialize("").is_ok());
  EXPECT_FALSE(Program::deserialize("not a program").is_ok());
  const auto magic_only = Program::deserialize("CBRP");
  ASSERT_FALSE(magic_only.is_ok());
  EXPECT_NE(magic_only.status().message().find("truncated"),
            std::string::npos);

  // Seeded byte-flip fuzz over a valid stream: every mutation must come
  // back as a clean Status or a decodable program — never a crash, hang
  // or unbounded allocation.
  const std::string bytes = sample_program().serialize();
  Rng rng(2024);
  for (int iter = 0; iter < 500; ++iter) {
    std::string mutated = bytes;
    const int flips = 1 + static_cast<int>(rng.next_below(8));
    for (int f = 0; f < flips; ++f) {
      const auto pos =
          static_cast<std::size_t>(rng.next_below(mutated.size()));
      mutated[pos] = static_cast<char>(rng.next_below(256));
    }
    const auto r = Program::deserialize(mutated);
    if (r.is_ok()) r.value().stats();  // decoded programs must be usable
  }
}

}  // namespace
}  // namespace cbrain
