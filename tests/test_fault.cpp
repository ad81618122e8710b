// Fault-injection & resilience subsystem tests (DESIGN.md "Fault model &
// recovery"): the zero-fault path is bit- and counter-identical to a
// build without the subsystem, a fixed seed reproduces identical fault
// logs and campaign tables at any worker count, each recovery policy
// actually recovers (with accounted overhead), and the resilient compiler
// degrades gracefully instead of failing.
#include "support.hpp"

#include "cbrain/arch/dram.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/fault/campaign.hpp"

namespace cbrain::test {
namespace {

const Network& tiny() {
  static const Network net = zoo::tiny_cnn();
  return net;
}

FaultPointSpec make_spec(FaultSite site, FaultMode mode, double rate,
                         RecoveryPolicy recovery, u64 seed) {
  FaultPointSpec s;
  s.site = site;
  s.mode = mode;
  s.rate_per_mword = rate;
  s.recovery = recovery;
  s.seed = seed;
  return s;
}

FaultPointResult point(const FaultPointSpec& spec,
                       const Network& net = tiny()) {
  auto r = run_fault_point(net, Policy::kAdaptive2,
                           AcceleratorConfig::paper_16_16(), spec);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

std::string log_of(const FaultPointResult& p) {
  std::string log;
  for (const FaultEvent& ev : p.events) {
    log += ev.to_string();
    log += '\n';
  }
  return log;
}

// With no site enabled the injector must be invisible: same bits, same
// counters, zero stats — even with recovery machinery armed.
TEST(FaultInjector, ZeroRateIsBitAndCounterIdentical) {
  const Network& net = tiny();
  const AcceleratorConfig config = AcceleratorConfig::with_pe(8, 8);
  const auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  const auto params = init_net_params<Fixed16>(net, 42);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 43);

  SimExecutor plain(net, compiled.value(), config);
  const SimResult a = plain.run(input, params);

  FaultConfig fc;
  fc.recovery = RecoveryPolicy::kEcc;
  FaultInjector injector(fc);
  SimExecutor hooked(net, compiled.value(), config);
  hooked.attach_fault(&injector);
  const SimResult b = hooked.run(input, params);

  EXPECT_TRUE(tensors_equal(a.final_output, b.final_output));
  ASSERT_EQ(a.per_layer.size(), b.per_layer.size());
  for (std::size_t i = 0; i < a.per_layer.size(); ++i)
    expect_counters_match(a.per_layer[i], b.per_layer[i],
                          "layer " + std::to_string(i));
  EXPECT_EQ(injector.stats().total_injected(), 0);
  EXPECT_EQ(injector.stats().overhead_cycles, 0);
  EXPECT_TRUE(injector.events().empty());
}

TEST(FaultInjector, FixedSeedReproducesIdenticalLogsAndStats) {
  const FaultPointSpec spec = make_spec(
      FaultSite::kWeightSram, FaultMode::kBitFlip, 1000,
      RecoveryPolicy::kParityRetry, 77);
  const FaultPointResult a = point(spec);
  const FaultPointResult b = point(spec);
  EXPECT_GT(a.stats.total_injected(), 0);
  EXPECT_EQ(log_of(a), log_of(b));
  EXPECT_EQ(a.stats.total_injected(), b.stats.total_injected());
  EXPECT_EQ(a.stats.overhead_cycles, b.stats.overhead_cycles);
  EXPECT_EQ(a.faulty_cycles, b.faulty_cycles);
  EXPECT_EQ(a.mismatched_outputs, b.mismatched_outputs);
}

TEST(FaultInjector, DifferentSeedsDiverge) {
  const auto base = make_spec(FaultSite::kWeightSram, FaultMode::kBitFlip,
                              1000, RecoveryPolicy::kNone, 1);
  auto other = base;
  other.seed = 2;
  EXPECT_NE(log_of(point(base)), log_of(point(other)));
}

// ECC corrects every storage fault in place: outputs match the fault-free
// reference while cycle and energy overhead are both charged (the
// acceptance scenario of this subsystem).
TEST(FaultRecovery, EccCorrectsWithAccountedOverhead) {
  const FaultPointSpec spec =
      make_spec(FaultSite::kWeightSram, FaultMode::kBitFlip, 2000,
                RecoveryPolicy::kEcc, 7);
  const FaultPointResult r = point(spec);
  EXPECT_GT(r.stats.total_injected(), 0);
  EXPECT_GT(r.stats.corrected, 0);
  EXPECT_EQ(r.stats.corrected, r.stats.detected);
  EXPECT_EQ(r.mismatched_outputs, 0);
  EXPECT_GT(r.stats.overhead_cycles, 0);
  EXPECT_GT(r.faulty_cycles, r.baseline_cycles);
  EXPECT_GT(r.faulty_pj, r.baseline_pj);
}

TEST(FaultRecovery, ParityReplayReExecutesInstructions) {
  const FaultPointSpec spec =
      make_spec(FaultSite::kWeightSram, FaultMode::kBitFlip, 500,
                RecoveryPolicy::kParityRetry, 7);
  const FaultPointResult r = point(spec);
  EXPECT_GT(r.stats.detected, 0);
  EXPECT_GT(r.stats.instruction_replays, 0);
  EXPECT_GT(r.stats.corrected, 0);
  EXPECT_GT(r.faulty_cycles, r.baseline_cycles);
}

TEST(FaultRecovery, DmaCrcRetriesWithBackoff) {
  const FaultPointSpec spec =
      make_spec(FaultSite::kDma, FaultMode::kBurstCorrupt, 500,
                RecoveryPolicy::kEcc, 7);
  const FaultPointResult r = point(spec);
  EXPECT_GT(r.stats.total_injected(), 0);
  EXPECT_GT(r.stats.dma_retries, 0);
  EXPECT_GT(r.stats.dma_retry_words, 0);
  EXPECT_GT(r.stats.overhead_cycles, 0);
  EXPECT_GT(r.faulty_cycles, r.baseline_cycles);
}

TEST(FaultRecovery, UnprotectedFaultsLandSilently) {
  bool damaged = false;
  for (u64 seed = 1; seed <= 6 && !damaged; ++seed) {
    const FaultPointResult r = point(make_spec(
        FaultSite::kDram, FaultMode::kBitFlip, 1000,
        RecoveryPolicy::kNone, seed));
    EXPECT_EQ(r.stats.detected, 0);
    EXPECT_EQ(r.stats.corrected, 0);
    EXPECT_EQ(r.stats.overhead_cycles, 0);
    EXPECT_EQ(r.faulty_cycles, r.baseline_cycles);
    if (r.stats.corrupted_words > 0 && r.mismatched_outputs > 0)
      damaged = true;
  }
  EXPECT_TRUE(damaged)
      << "no seed produced visible damage without protection";
}

// PE-lane faults corrupt arithmetic, which parity/ECC (storage and
// transfer protection) cannot see — the documented residual risk.
TEST(FaultRecovery, PeLaneFaultsBypassStorageProtection) {
  bool fired = false;
  for (u64 seed = 1; seed <= 6 && !fired; ++seed) {
    const FaultPointResult r = point(make_spec(
        FaultSite::kPeLane, FaultMode::kStuckAt, 3000,
        RecoveryPolicy::kEcc, seed));
    EXPECT_EQ(r.stats.detected, 0);
    if (r.stats.total_injected() > 0) {
      fired = true;
      EXPECT_GT(r.stats.silent, 0);
    }
  }
  EXPECT_TRUE(fired) << "no seed activated a PE lane fault";
}

TEST(FaultCampaign, TablesAndLogsIdenticalAcrossJobs) {
  CampaignSpec cs;
  cs.nets = {tiny()};
  cs.config = AcceleratorConfig::paper_16_16();
  cs.sites = {FaultSite::kWeightSram, FaultSite::kDma};
  cs.rates_per_mword = {500};
  cs.recoveries = {RecoveryPolicy::kNone, RecoveryPolicy::kEcc};
  cs.seed = 9;

  parallel::set_default_jobs(1);
  const auto serial = run_fault_campaign(cs);
  parallel::set_default_jobs(4);
  const auto threaded = run_fault_campaign(cs);
  parallel::set_default_jobs(0);  // restore hardware default

  ASSERT_TRUE(serial.is_ok());
  ASSERT_TRUE(threaded.is_ok());
  EXPECT_EQ(campaign_table(serial.value()).to_string(),
            campaign_table(threaded.value()).to_string());
  EXPECT_EQ(campaign_table(serial.value()).to_csv(),
            campaign_table(threaded.value()).to_csv());
  ASSERT_EQ(serial.value().size(), threaded.value().size());
  for (std::size_t i = 0; i < serial.value().size(); ++i)
    EXPECT_EQ(log_of(serial.value()[i]), log_of(threaded.value()[i]));
}

// Golden anchor for the cycle tier's fault oracle. Every fault site
// corrupts buffer words in place when the executor acquires them, and
// all sites draw from one shared RNG stream, so these counts pin three
// things at once: which words each conv scheme reads, the order of the
// fault hooks, and which corrupted words reach the sums. That includes
// the zero-padded weight taps of the partition scheme (seed 1 lands
// weight upsets there that reach the outputs; dropping those taps from
// the sums changes its weight rows). Values were captured from the
// per-scheme executor loops and must survive any rewrite of the conv
// value pass.
TEST(FaultCampaign, SchemeMixAnchorTable) {
  struct Expected {
    Policy policy;
    u64 seed;
    // One row per (site, recovery): inj det corr uncorr silent replays
    // mism max_err, in campaign grid order.
    std::vector<std::string> rows;
  };
  const std::vector<Expected> anchors = {
      {Policy::kFixedInter, 3,
       {"24 0 0 0 24 0 0 0", "107 107 79 28 0 12 0 0",
        "46 0 0 0 46 0 10 0.8906", "182 182 134 48 0 12 3 0.08594",
        "0 0 0 0 0 0 0 0", "1 1 1 0 0 1 0 0", "0 0 0 0 0 0 0 0",
        "0 0 0 0 0 0 0 0", "3 0 0 0 3 0 0 0", "3 0 0 0 3 0 0 0"}},
      {Policy::kFixedIntra, 3,
       {"76 0 0 0 76 0 0 0", "293 293 228 65 0 15 0 0",
        "46 0 0 0 46 0 10 0.8906", "182 182 134 48 0 12 3 0.08594",
        "0 0 0 0 0 0 0 0", "1 1 1 0 0 1 0 0", "70 0 0 0 70 0 0 0",
        "259 259 191 68 0 9 0 0", "4 0 0 0 4 0 0 0", "3 0 0 0 3 0 0 0"}},
      {Policy::kFixedPartition, 3,
       {"24 0 0 0 24 0 0 0", "113 113 88 25 0 15 0 0",
        "46 0 0 0 46 0 10 0.8984", "186 186 145 41 0 12 9 0.06641",
        "0 0 0 0 0 0 0 0", "1 1 1 0 0 1 0 0", "70 0 0 0 70 0 0 0",
        "259 259 191 68 0 9 0 0", "4 0 0 0 4 0 0 0", "3 0 0 0 3 0 0 0"}},
      {Policy::kAdaptive2, 3,
       {"24 0 0 0 24 0 0 0", "113 113 88 25 0 15 0 0",
        "46 0 0 0 46 0 10 0.8984", "186 186 145 41 0 12 9 0.06641",
        "0 0 0 0 0 0 0 0", "1 1 1 0 0 1 0 0", "70 0 0 0 70 0 0 0",
        "259 259 191 68 0 9 0 0", "3 0 0 0 3 0 0 0", "3 0 0 0 3 0 0 0"}},
      {Policy::kFixedPartition, 1,
       {"28 0 0 0 28 0 0 0", "104 104 82 22 0 14 0 0",
        "41 0 0 0 41 0 10 0.7461", "183 183 136 47 0 12 10 0.5781",
        "0 0 0 0 0 0 0 0", "0 0 0 0 0 0 0 0", "65 0 0 0 65 0 0 0",
        "259 259 200 59 0 9 0 0", "3 0 0 0 3 0 0 0", "2 0 0 0 2 0 0 0"}},
      {Policy::kAdaptive2, 1,
       {"28 0 0 0 28 0 0 0", "104 104 82 22 0 14 0 0",
        "41 0 0 0 41 0 10 0.7461", "183 183 136 47 0 12 10 0.5781",
        "0 0 0 0 0 0 0 0", "0 0 0 0 0 0 0 0", "65 0 0 0 65 0 0 0",
        "259 259 200 59 0 9 0 0", "3 0 0 0 3 0 0 0", "2 0 0 0 2 0 0 0"}},
  };
  for (const Expected& e : anchors) {
    SCOPED_TRACE(std::string(policy_name(e.policy)) + " seed " +
                 std::to_string(e.seed));
    CampaignSpec cs;
    cs.nets = {zoo::scheme_mix_cnn()};
    cs.policy = e.policy;
    cs.config = AcceleratorConfig::paper_16_16();
    cs.sites = {FaultSite::kInputSram, FaultSite::kWeightSram,
                FaultSite::kBiasSram, FaultSite::kAccumSram,
                FaultSite::kPeLane};
    cs.rates_per_mword = {2000};
    cs.recoveries = {RecoveryPolicy::kNone, RecoveryPolicy::kParityRetry};
    cs.seed = e.seed;
    const auto r = run_fault_campaign(cs);
    ASSERT_TRUE(r.is_ok()) << r.status().to_string();
    ASSERT_EQ(r.value().size(), e.rows.size());
    for (std::size_t i = 0; i < e.rows.size(); ++i) {
      const FaultPointResult& p = r.value()[i];
      char max_err[32];
      std::snprintf(max_err, sizeof(max_err), "%.4g", p.max_abs_err);
      const std::string got =
          std::to_string(p.stats.total_injected()) + " " +
          std::to_string(p.stats.detected) + " " +
          std::to_string(p.stats.corrected) + " " +
          std::to_string(p.stats.uncorrected) + " " +
          std::to_string(p.stats.silent) + " " +
          std::to_string(p.stats.instruction_replays) + " " +
          std::to_string(p.mismatched_outputs) + " " + max_err;
      EXPECT_EQ(got, e.rows[i])
          << fault_site_name(p.spec.site) << " / "
          << recovery_policy_name(p.spec.recovery);
    }
  }
}

// Campaign points arm one site each. With every site armed on one
// injector the sites share one RNG stream, so these pins also fix the
// order in which a tile acquires its band, weight, bias and partial
// spans and issues its PE operations. Row: injected per site (input,
// weight, bias, accum, pe), detected, corrected, replays, outputs that
// differ from the fault-free run, sum of the raw output words.
TEST(FaultInjector, SchemeMixAllSitesAnchor) {
  const Network net = zoo::scheme_mix_cnn();
  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  const auto params = init_net_params<Fixed16>(net, 42);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 43);
  const std::vector<std::pair<Policy, std::string>> anchors = {
      {Policy::kFixedInter, "113 180 1 0 12 294 220 15 10 256"},
      {Policy::kFixedIntra, "280 171 1 263 10 715 539 15 10 256"},
      {Policy::kFixedPartition, "104 195 1 253 12 553 424 15 10 257"},
      {Policy::kAdaptive2, "111 193 1 251 13 556 420 15 10 255"},
  };
  for (const auto& [policy, expected] : anchors) {
    SCOPED_TRACE(policy_name(policy));
    const auto compiled = compile_network(net, policy, config);
    ASSERT_TRUE(compiled.is_ok());
    SimExecutor clean(net, compiled.value(), config);
    const Tensor3<Fixed16> golden = clean.run(input, params).final_output;

    FaultConfig fc;
    fc.seed = 3;
    fc.recovery = RecoveryPolicy::kParityRetry;
    for (const FaultSite site :
         {FaultSite::kInputSram, FaultSite::kWeightSram,
          FaultSite::kBiasSram, FaultSite::kAccumSram, FaultSite::kPeLane}) {
      fc.site(site).per_mword = 2000;
      fc.site(site).mode = default_fault_mode(site);
    }
    FaultInjector injector(fc);
    SimExecutor hooked(net, compiled.value(), config);
    hooked.attach_fault(&injector);
    const Tensor3<Fixed16> out = hooked.run(input, params).final_output;

    const FaultStats& st = injector.stats();
    std::string got;
    for (const FaultSite site :
         {FaultSite::kInputSram, FaultSite::kWeightSram,
          FaultSite::kBiasSram, FaultSite::kAccumSram, FaultSite::kPeLane})
      got += std::to_string(st.injected[static_cast<std::size_t>(site)]) +
             " ";
    i64 mism = 0, sum = 0;
    for (std::size_t i = 0; i < out.storage().size(); ++i) {
      mism += out.storage()[i].raw() != golden.storage()[i].raw();
      sum += out.storage()[i].raw();
    }
    got += std::to_string(st.detected) + " " + std::to_string(st.corrected) +
           " " + std::to_string(st.instruction_replays) + " " +
           std::to_string(mism) + " " + std::to_string(sum);
    EXPECT_EQ(got, expected);
  }
}

// Every FaultStats field, one line, for whole-struct comparisons.
std::string stats_line(const FaultStats& st) {
  std::string s;
  for (const i64 v : st.injected) s += std::to_string(v) + " ";
  for (const i64 v : st.code_words) s += std::to_string(v) + " ";
  for (const i64 v :
       {st.corrupted_words, st.masked, st.detected, st.corrected, st.silent,
        st.uncorrected, st.dma_stalls, st.dma_retries, st.dma_retry_words,
        st.instruction_replays, st.overhead_cycles})
    s += std::to_string(v) + " ";
  return s;
}

// The parameter loader writes rows with Dram::write_words. Under an
// attached injector that must be indistinguishable from one Dram::write
// per word: same memory, same FaultStats (code words included), same
// event log, same pending overhead.
TEST(FaultInjector, DramWriteWordsMatchesPerWordWrites) {
  std::vector<std::int16_t> data(3000);
  Rng rng(5);
  for (auto& v : data)
    v = static_cast<std::int16_t>(rng.next_int(-32768, 32767));
  const i64 rows[] = {1, 7, 64, 500, 2428};  // sums to data.size()
  for (const FaultMode mode : {FaultMode::kBitFlip, FaultMode::kBurstCorrupt})
    for (const RecoveryPolicy rec :
         {RecoveryPolicy::kNone, RecoveryPolicy::kParityRetry,
          RecoveryPolicy::kEcc}) {
      SCOPED_TRACE(std::string(fault_mode_name(mode)) + "/" +
                   recovery_policy_name(rec));
      FaultConfig fc;
      fc.seed = 9;
      fc.recovery = rec;
      fc.site(FaultSite::kDram).per_mword = 20000;
      fc.site(FaultSite::kDram).mode = mode;
      fc.site(FaultSite::kDram).burst_words = 4;
      FaultInjector bulk_inj(fc), word_inj(fc);
      Dram bulk(4096), word(4096);
      bulk.attach_fault(&bulk_inj);
      word.attach_fault(&word_inj);
      i64 a = 100;
      for (const i64 n : rows) {
        bulk.write_words(a, n, data.data() + (a - 100));
        for (i64 i = 0; i < n; ++i)
          word.write(a + i, data[static_cast<std::size_t>(a - 100 + i)]);
        a += n;
      }
      std::vector<std::int16_t> got(4096), want(4096);
      bulk.read_block(0, 4096, got.data());
      word.read_block(0, 4096, want.data());
      EXPECT_EQ(got, want);
      EXPECT_GT(word_inj.stats().total_injected(), 10);
      EXPECT_EQ(stats_line(bulk_inj.stats()), stats_line(word_inj.stats()));
      EXPECT_EQ(bulk_inj.event_log(), word_inj.event_log());
      EXPECT_EQ(bulk_inj.take_overhead_cycles(),
                word_inj.take_overhead_cycles());
    }
}

TEST(FaultCampaign, FailsWithStatusOnImpossibleConfig) {
  CampaignSpec cs;
  cs.nets = {zoo::single_conv({3, 32, 32},
                              {.dout = 8, .k = 5, .stride = 1}, "toobig")};
  cs.config = AcceleratorConfig::with_pe(4, 4);
  cs.config.inout_buf.size_bytes = 64;  // nothing fits
  cs.sites = {FaultSite::kWeightSram};
  cs.rates_per_mword = {100};
  cs.recoveries = {RecoveryPolicy::kNone};
  const auto r = run_fault_campaign(cs);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

// The graceful-degradation path: a policy whose scheme cannot be tiled
// into the buffers falls back (with a logged decision) instead of
// failing, and the degraded program still computes the right answer.
TEST(ResilientCompiler, FallsBackWhenSchemeDoesNotFit) {
  const Network net = zoo::single_conv(
      {3, 32, 32}, {.dout = 8, .k = 5, .stride = 1}, "fallback_net");
  AcceleratorConfig config = AcceleratorConfig::with_pe(4, 4);
  config.inout_buf.size_bytes = 1024;  // intra-unroll's band cannot fit

  ASSERT_FALSE(compile_network(net, Policy::kFixedIntra, config).is_ok());

  std::vector<CompileFallback> fallbacks;
  const auto r =
      compile_network_resilient(net, Policy::kFixedIntra, config,
                                &fallbacks);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(fallbacks.size(), 1u);
  EXPECT_EQ(fallbacks[0].from, Scheme::kIntraUnroll);
  EXPECT_NE(fallbacks[0].to, Scheme::kIntraUnroll);
  EXPECT_NE(fallbacks[0].reason.find("RESOURCE_EXHAUSTED"),
            std::string::npos);
  EXPECT_FALSE(fallbacks[0].to_string().empty());

  const auto params = init_net_params<Fixed16>(net, 42);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 43);
  RefExecutor<Fixed16> ref(net, params);
  SimExecutor sim(net, r.value(), config);
  EXPECT_TRUE(
      tensors_equal(ref.run(input), sim.run(input, params).final_output));
}

TEST(ResilientCompiler, NoFallbackWhenEverythingFits) {
  std::vector<CompileFallback> fallbacks;
  const auto r = compile_network_resilient(
      tiny(), Policy::kAdaptive2, AcceleratorConfig::paper_16_16(),
      &fallbacks);
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(fallbacks.empty());
}

TEST(ResilientCompiler, FailsOnlyWhenNoSchemeFits) {
  const Network net = zoo::single_conv(
      {3, 32, 32}, {.dout = 8, .k = 5, .stride = 1}, "hopeless");
  AcceleratorConfig config = AcceleratorConfig::with_pe(4, 4);
  config.inout_buf.size_bytes = 64;
  const auto r = compile_network_resilient(net, Policy::kFixedIntra,
                                           config);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), StatusCode::kResourceExhausted);
}

TEST(FaultNames, RoundTripThroughParsers) {
  for (int i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    FaultSite parsed;
    ASSERT_TRUE(fault_site_from_name(fault_site_name(site), &parsed));
    EXPECT_EQ(parsed, site);
  }
  for (const auto policy :
       {RecoveryPolicy::kNone, RecoveryPolicy::kParityRetry,
        RecoveryPolicy::kEcc}) {
    RecoveryPolicy parsed;
    ASSERT_TRUE(
        recovery_policy_from_name(recovery_policy_name(policy), &parsed));
    EXPECT_EQ(parsed, policy);
  }
  FaultSite site;
  RecoveryPolicy policy;
  EXPECT_FALSE(fault_site_from_name("bogus", &site));
  EXPECT_FALSE(recovery_policy_from_name("bogus", &policy));
}

}  // namespace
}  // namespace cbrain::test
