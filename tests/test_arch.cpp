// Arch-layer tests: SRAM/DRAM/DMA models, PE accounting, configuration
// scaling rules (Table 3) and the energy model.
#include <gtest/gtest.h>

#include <vector>

#include "cbrain/arch/area_model.hpp"
#include "cbrain/arch/dma.hpp"
#include "cbrain/arch/energy_model.hpp"
#include "cbrain/arch/pe_array.hpp"

namespace cbrain {
namespace {

TEST(Config, Table3ScalingRules) {
  const AcceleratorConfig c16 = AcceleratorConfig::paper_16_16();
  EXPECT_EQ(c16.multipliers(), 256);
  EXPECT_EQ(c16.inout_buf.size_bytes, 2 * 1024 * 1024);
  EXPECT_EQ(c16.weight_buf.size_bytes, 1024 * 1024);
  EXPECT_EQ(c16.bias_buf.size_bytes, 4 * 1024);

  const AcceleratorConfig c32 = AcceleratorConfig::paper_32_32();
  EXPECT_EQ(c32.multipliers(), 1024);

  const AcceleratorConfig z = AcceleratorConfig::with_pe(16, 28);
  EXPECT_EQ(z.multipliers(), 448);  // the Fig. 9 equal-resource point
  EXPECT_THROW(AcceleratorConfig::with_pe(0, 4), CheckError);
}

TEST(Config, CyclesToMs) {
  const AcceleratorConfig c = AcceleratorConfig::paper_16_16();
  EXPECT_DOUBLE_EQ(c.cycles_to_ms(1'000'000), 1.0);  // 1 GHz
  AcceleratorConfig slow = c;
  slow.clock_ghz = 0.1;
  EXPECT_DOUBLE_EQ(slow.cycles_to_ms(1'000'000), 10.0);
}

TEST(Sram, AccountingAndBounds) {
  Sram16 s("test", 64);  // 32 words
  s.write(0, 42);
  EXPECT_EQ(s.read(0), 42);
  std::int16_t buf[4] = {1, 2, 3, 4};
  s.write_block(8, 4, buf);
  const std::int16_t* out = s.read_span(8, 4);
  s.count_reads(4);  // read_span leaves the accounting to the caller
  EXPECT_EQ(out[3], 4);
  EXPECT_EQ(s.stats().reads, 5);
  EXPECT_EQ(s.stats().writes, 5);
  EXPECT_THROW(s.read(32), CheckError);
  EXPECT_THROW(s.write_block(30, 4, buf), CheckError);
  s.reset_stats();
  EXPECT_EQ(s.stats().reads, 0);
}

TEST(AccumSram, PartialsAreTwoWordsEach) {
  AccumSram s("out", 64);  // 16 partials
  s.write(3, 1000);
  s.accumulate(3, 24);
  EXPECT_EQ(s.read(3), 1024);
  // write: 2w, accumulate: 2r+2w, read: 2r.
  EXPECT_EQ(s.stats().writes, 4);
  EXPECT_EQ(s.stats().reads, 4);
  EXPECT_THROW(s.read(16), CheckError);
}

TEST(Dram, ReadWriteAndBounds) {
  Dram d(1024);
  const std::int16_t v = -7;
  d.write_words(150, 1, &v);
  EXPECT_EQ(d.read_span(150, 1)[0], -7);
  EXPECT_THROW(d.read_span(1024, 1), CheckError);
  // Word i of a strided run lands at addr + i*stride; the run is checked
  // once, from its first word to its last.
  d.strided_run(200, 3, 4).put(3, 5);
  EXPECT_EQ(d.read_span(209, 1)[0], 5);
  EXPECT_NO_THROW(d.strided_run(999, 8, 4));
  EXPECT_THROW(d.strided_run(1000, 8, 4), CheckError);
  EXPECT_THROW(d.strided_run(-1, 1, 1), CheckError);
}

TEST(Dma, TransferTimingModel) {
  DramConfig cfg;
  cfg.words_per_cycle = 2.0;
  cfg.latency_cycles = 64;
  EXPECT_EQ(cfg.transfer_cycles(0), 0);
  EXPECT_EQ(cfg.transfer_cycles(100), 64 + 50);
  EXPECT_EQ(cfg.transfer_cycles(1), 64 + 0);

  Dram dram(256);
  Sram16 sram("s", 128);
  DmaEngine dma(cfg);
  const std::int16_t word = 99;
  dram.write_words(10, 1, &word);
  dma.load(dram, 10, sram, 0, 4);
  EXPECT_EQ(sram.read(0), 99);
  EXPECT_EQ(sram.stats().writes, 4);
}

// With no injector the load copies DRAM straight into the buffer; it
// must leave the same words and SRAM counts as the staged path under an
// attached injector that never fires.
TEST(Dma, FaultFreeLoadMatchesZeroRateInjector) {
  DramConfig cfg;
  cfg.words_per_cycle = 4.0;
  cfg.latency_cycles = 20;
  Dram dram(2048);
  std::vector<std::int16_t> pattern(2048);
  for (std::size_t i = 0; i < pattern.size(); ++i)
    pattern[i] = static_cast<std::int16_t>(i * 7919 + 3);
  pattern[9] = -32768;
  dram.write_words(0, 2048, pattern.data());

  FaultInjector zero_rate(FaultConfig{});
  DmaEngine plain(cfg), hooked(cfg);
  hooked.attach_fault(&zero_rate);
  Sram16 a("a", 2048), b("b", 2048);
  const i64 bursts[][3] = {{9, 0, 1}, {17, 5, 300}, {1024, 700, 324},
                           {2047, 1023, 1}, {0, 0, 0}, {1724, 0, 324}};
  for (const auto& [src, dst, words] : bursts) {
    plain.load(dram, src, a, dst, words);
    hooked.load(dram, src, b, dst, words);
  }
  EXPECT_EQ(a.stats().writes, b.stats().writes);
  EXPECT_EQ(a.stats().writes, 1 + 300 + 324 + 1 + 324);
  const std::int16_t* span_a = a.read_span(0, 1024);
  const std::int16_t* span_b = b.read_span(0, 1024);
  const std::vector<std::int16_t> got_a(span_a, span_a + 1024);
  const std::vector<std::int16_t> got_b(span_b, span_b + 1024);
  EXPECT_EQ(got_a, got_b);
  EXPECT_EQ(got_a[700], pattern[1024]);
  EXPECT_EQ(got_a[1023], pattern[2047]);

  // Out-of-range DRAM spans still fail the bounds check, before any
  // buffer word or counter changes.
  EXPECT_THROW(plain.load(dram, 2000, a, 0, 49), CheckError);
  EXPECT_THROW(plain.load(dram, -1, a, 0, 4), CheckError);
  EXPECT_EQ(a.stats().writes, b.stats().writes);
}

TEST(PeArray, UtilizationAccounting) {
  const AcceleratorConfig cfg = AcceleratorConfig::with_pe(4, 4);
  PEArray pe(cfg);
  pe.begin_ops(1, 16);
  pe.begin_ops(1, 4);
  EXPECT_EQ(pe.stats().ops, 2);
  EXPECT_EQ(pe.stats().idle_mul_slots, 12);
  pe.begin_ops(3, 20);  // batched: 48 slots over 3 ops, 28 idle
  EXPECT_EQ(pe.stats().ops, 5);
  EXPECT_EQ(pe.stats().idle_mul_slots, 40);

  pe.count_mac(3, 2);  // a 3-term dot: 3 muls, 2 tree adds
  EXPECT_EQ(pe.stats().mul_ops, 3);
  EXPECT_EQ(pe.stats().add_ops, 2);
  pe.count_add(5);
  EXPECT_EQ(pe.stats().add_ops, 7);
}

TEST(Energy, BreakdownArithmetic) {
  TrafficCounters c;
  c.mul_ops = 1000;
  c.idle_mul_slots = 100;
  c.add_ops = 500;
  c.input_reads = 200;
  c.weight_reads = 300;
  c.bias_reads = 10;
  c.output_writes = 50;
  c.dram_reads = 40;
  EnergyParams p;
  const EnergyBreakdown e = compute_energy(c, p);
  EXPECT_DOUBLE_EQ(e.pe_pj, 1000 * p.mul_pj + 100 * p.mul_idle_pj +
                                500 * p.add_pj);
  EXPECT_DOUBLE_EQ(e.buffer_pj, (200 + 50) * p.inout_buf_pj +
                                    300 * p.weight_buf_pj +
                                    10 * p.bias_buf_pj);
  EXPECT_DOUBLE_EQ(e.dram_pj, 40 * p.dram_pj);
  EXPECT_DOUBLE_EQ(e.total_pj(), e.pe_pj + e.buffer_pj + e.dram_pj);
}

TEST(Energy, SavingSemantics) {
  EXPECT_DOUBLE_EQ(energy_saving(100.0, 60.0), 0.40);
  EXPECT_DOUBLE_EQ(energy_saving(100.0, 140.0), -0.40);  // costs energy
  EXPECT_DOUBLE_EQ(energy_saving(0.0, 10.0), 0.0);
}

TEST(Counters, SumAndFormat) {
  TrafficCounters a, b;
  a.input_reads = 5;
  a.total_cycles = 10;
  b.input_reads = 7;
  b.dram_writes = 3;
  const TrafficCounters s = a + b;
  EXPECT_EQ(s.input_reads, 12);
  EXPECT_EQ(s.total_cycles, 10);
  EXPECT_EQ(s.dram_words(), 3);
  EXPECT_EQ(s.buffer_access_bits(), 12 * 16);
  EXPECT_NE(s.to_string().find("cycles=10"), std::string::npos);
}

TEST(AreaModel, ScalesWithGeometryAndSram) {
  const AreaBreakdown a16 = estimate_area(AcceleratorConfig::paper_16_16());
  const AreaBreakdown a32 = estimate_area(AcceleratorConfig::paper_32_32());
  // 4x the multipliers -> 4x the datapath; SRAM unchanged.
  EXPECT_NEAR(a32.datapath_mm2, 4.0 * a16.datapath_mm2, 1e-9);
  EXPECT_DOUBLE_EQ(a32.sram_mm2, a16.sram_mm2);
  EXPECT_GT(a16.total_mm2(), 0.0);
  // SRAM dominates a 16-16 design (3 MiB of buffers vs 256 multipliers).
  EXPECT_GT(a16.sram_mm2, a16.datapath_mm2);
  // Wider PEs amortize the SRAM: compute density rises.
  EXPECT_GT(peak_gops_per_mm2(AcceleratorConfig::paper_32_32()),
            peak_gops_per_mm2(AcceleratorConfig::paper_16_16()));
}

}  // namespace
}  // namespace cbrain
