// Hand-computed traffic assertions for the per-scheme cost models — the
// counting contract of model/scheme_models.hpp, checked numerically on
// tiles small enough to derive every counter on paper.
#include <gtest/gtest.h>

#include "cbrain/model/scheme_models.hpp"

namespace cbrain {
namespace {

// A 4x4 PE: Tin = Tout = 4, 16 multiplier slots.
const AcceleratorConfig kCfg = AcceleratorConfig::with_pe(4, 4);
// Every tile's layer stores to one consumer cube.
constexpr i64 kConsumers = 1;

// Common tile: 2 output rows x 3 cols (npix=6), k=2 (kk=4), stride 1,
// dins=4 (one Tin chunk), douts=4 (one lane group), single din tile.
ConvTileInstr base_tile(Scheme scheme) {
  ConvTileInstr t;
  t.scheme = scheme;
  t.k = 2;
  t.stride = 1;
  t.part = (scheme == Scheme::kPartition || scheme == Scheme::kIntraSliding)
               ? PartitionSpec::from(2, 1)
               : PartitionSpec{1, 2};
  t.out_w = 3;
  t.out_row0 = 0;
  t.out_row1 = 2;
  t.dout0 = 0;
  t.dout1 = 4;
  t.din0 = 0;
  t.din1 = 4;
  t.band_rows = 3;
  t.band_width = 4;
  return t;
}

TEST(SchemeTraffic, InterClassic) {
  const TrafficCounters c =
      model_conv_tile(base_tile(Scheme::kInter), kCfg, kConsumers);
  // ops = npix * kk * ceil(4/4) = 6*4 = 24 cycles; full 16-slot use.
  EXPECT_EQ(c.compute_cycles, 24);
  EXPECT_EQ(c.mul_ops, 6 * 4 * 4 * 4);  // npix*kk*dins*L = 384 MACs
  EXPECT_EQ(c.idle_mul_slots, 0);
  // Data read once per op (shared across lanes): npix*kk*dins = 96.
  EXPECT_EQ(c.input_reads, 96);
  // Weights STREAM: every op reads C*L = 16 -> npix*kk*dins*L = 384.
  EXPECT_EQ(c.weight_reads, 384);
  // Bias per pixel per lane.
  EXPECT_EQ(c.bias_reads, 6 * 4);
  // Single-tile: values complete in the PE, no output-buffer traffic.
  EXPECT_EQ(c.output_reads, 0);
  EXPECT_EQ(c.output_writes, 0);
  // One 16-bit store per output value per consumer.
  EXPECT_EQ(c.dram_writes, 6 * 4);
}

TEST(SchemeTraffic, InterImproved) {
  const TrafficCounters c =
      model_conv_tile(base_tile(Scheme::kInterImproved), kCfg, kConsumers);
  // Same MAC schedule + 1 register-load cycle per (kk * cdin) pass.
  EXPECT_EQ(c.compute_cycles, 24 + 4);
  EXPECT_EQ(c.mul_ops, 384);
  // Weights resident: one C*L register load per pass = 4 passes * 16.
  EXPECT_EQ(c.weight_reads, 4 * 16);
  // Bias read once into registers.
  EXPECT_EQ(c.bias_reads, 4);
  // Add-and-store partials: first pass writes, 3 passes RMW, finalize
  // reads. Writes: 4 passes * npix * 2L = 4*6*8 = 192.
  EXPECT_EQ(c.output_writes, 192);
  // Reads: 3 RMW passes (6*8=48 each) + finalize 6*8 = 192.
  EXPECT_EQ(c.output_reads, 3 * 48 + 48);
  EXPECT_EQ(c.dram_writes, 24);
}

TEST(SchemeTraffic, PartitionSubKernels) {
  // k=2, s=1 -> g=2, ks=1, G=4 one-element sub-kernels; w = Tin = 4
  // windows per op.
  const TrafficCounters c =
      model_conv_tile(base_tile(Scheme::kPartition), kCfg, kConsumers);
  // passes = G*dins = 16; ops/pass = ceil(6/4) = 2 -> 32 cycles/lane grp.
  EXPECT_EQ(c.compute_cycles, 32);
  // MACs: padded kernel 2x2 == k (no padding waste here): 384.
  EXPECT_EQ(c.mul_ops, 384);
  // Data: ss per window -> npix*ss per pass * passes = 6*1*16 = 96.
  EXPECT_EQ(c.input_reads, 96);
  // Weights: ss*L per pass = 4 -> 64 total.
  EXPECT_EQ(c.weight_reads, 16 * 4);
  // RMW every pass: writes = passes*npix*2L = 16*6*8 = 768; reads one
  // pass fewer + finalize.
  EXPECT_EQ(c.output_writes, 768);
  EXPECT_EQ(c.output_reads, 15 * 48 + 48);
  EXPECT_EQ(c.bias_reads, 4);
}

TEST(SchemeTraffic, IntraUnrollChunked) {
  // kk = 4 == Tin: exactly one whole window per op (w = 1).
  const TrafficCounters c =
      model_conv_tile(base_tile(Scheme::kIntraUnroll), kCfg, kConsumers);
  // ops = dins * npix * 1 = 24 cycles per lane group.
  EXPECT_EQ(c.compute_cycles, 24);
  EXPECT_EQ(c.mul_ops, 384);
  EXPECT_EQ(c.input_reads, 96);
  // Weights resident per (map, lane group): dins * kk * L = 64.
  EXPECT_EQ(c.weight_reads, 64);
  // One RMW per (pixel, map): writes = 4*6*2L = 192.
  EXPECT_EQ(c.output_writes, 192);
  EXPECT_EQ(c.output_reads, 3 * 48 + 48);
}

TEST(SchemeTraffic, LaneGroupRemainders) {
  // douts = 6 on Tout = 4: lane groups of 4 and 2.
  ConvTileInstr t = base_tile(Scheme::kInter);
  t.dout1 = 6;
  const TrafficCounters c = model_conv_tile(t, kCfg, kConsumers);
  EXPECT_EQ(c.compute_cycles, 2 * 24);        // two lane-group passes
  EXPECT_EQ(c.mul_ops, 6 * 4 * 4 * 6);        // L sums to 6
  EXPECT_EQ(c.idle_mul_slots, 24 * 16 * 2 - c.mul_ops);
  EXPECT_EQ(c.input_reads, 2 * 96);           // data re-read per group
}

TEST(SchemeTraffic, MultiDinTilePartials) {
  // Split din into two tiles: classic inter must RMW through the buffer.
  ConvTileInstr first = base_tile(Scheme::kInter);
  first.din1 = 2;
  first.last_din_chunk = false;
  ConvTileInstr last = base_tile(Scheme::kInter);
  last.din0 = 2;
  last.first_din_chunk = false;
  const TrafficCounters c1 = model_conv_tile(first, kCfg, kConsumers);
  const TrafficCounters c2 = model_conv_tile(last, kCfg, kConsumers);
  // First tile: write-only partials (6 pixels * 2 words * 4 lanes).
  EXPECT_EQ(c1.output_writes, 48);
  EXPECT_EQ(c1.output_reads, 0);
  EXPECT_EQ(c1.dram_writes, 0);
  // Last tile: accumulate (48r+48w) then finalize (48r).
  EXPECT_EQ(c2.output_writes, 48);
  EXPECT_EQ(c2.output_reads, 96);
  EXPECT_EQ(c2.dram_writes, 24);
  // Bias only on the first chunk.
  EXPECT_EQ(c1.bias_reads, 24);
  EXPECT_EQ(c2.bias_reads, 0);
}

TEST(SchemeTraffic, FcChunking) {
  FcTileInstr f;
  f.din = 20;
  f.din0 = 0;
  f.din1 = 8;
  f.dout0 = 0;
  f.dout1 = 4;
  f.first_din_chunk = true;
  f.last_din_chunk = false;
  const TrafficCounters c = model_fc_tile(f, kCfg, kConsumers);
  EXPECT_EQ(c.compute_cycles, 2);     // ceil(8/4)
  EXPECT_EQ(c.mul_ops, 8 * 4);
  EXPECT_EQ(c.input_reads, 8);
  EXPECT_EQ(c.weight_reads, 32);
  EXPECT_EQ(c.output_writes, 8);      // first chunk: write-only partials
  EXPECT_EQ(c.output_reads, 0);
  EXPECT_EQ(c.dram_writes, 0);        // not final
}

}  // namespace
}  // namespace cbrain
