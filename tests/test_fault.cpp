// Fault-injection & resilience subsystem tests (DESIGN.md "Fault model &
// recovery"): the zero-fault path is bit- and counter-identical to a
// build without the subsystem, a fixed seed reproduces identical fault
// logs and campaign tables at any worker count, each recovery policy
// actually recovers (with accounted overhead), and the resilient compiler
// degrades gracefully instead of failing.
#include "support.hpp"

#include <iterator>
#include <sstream>

#include "cbrain/arch/dram.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/fault/campaign.hpp"

namespace cbrain::test {
namespace {

const Network& tiny() {
  static const Network net = zoo::tiny_cnn();
  return net;
}

FaultPointSpec make_spec(FaultSite site, double rate,
                         RecoveryPolicy recovery, u64 seed) {
  FaultPointSpec s;
  s.site = site;
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
      FaultSite::kWeightSram, 1000, RecoveryPolicy::kParityRetry, 77);
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
  const auto base =
      make_spec(FaultSite::kWeightSram, 1000, RecoveryPolicy::kNone, 1);
  auto other = base;
  other.seed = 2;
  EXPECT_NE(log_of(point(base)), log_of(point(other)));
}

// ECC corrects every storage fault in place: outputs match the fault-free
// reference while cycle and energy overhead are both charged (the
// acceptance scenario of this subsystem).
TEST(FaultRecovery, EccCorrectsWithAccountedOverhead) {
  const FaultPointSpec spec =
      make_spec(FaultSite::kWeightSram, 2000, RecoveryPolicy::kEcc, 7);
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
      make_spec(FaultSite::kWeightSram, 500, RecoveryPolicy::kParityRetry, 7);
  const FaultPointResult r = point(spec);
  EXPECT_GT(r.stats.detected, 0);
  EXPECT_GT(r.stats.instruction_replays, 0);
  EXPECT_GT(r.stats.corrected, 0);
  EXPECT_GT(r.faulty_cycles, r.baseline_cycles);
}

TEST(FaultRecovery, DmaCrcRetriesWithBackoff) {
  const FaultPointSpec spec =
      make_spec(FaultSite::kDma, 500, RecoveryPolicy::kEcc, 7);
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
    const FaultPointResult r = point(
        make_spec(FaultSite::kDram, 1000, RecoveryPolicy::kNone, seed));
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
    const FaultPointResult r = point(
        make_spec(FaultSite::kPeLane, 3000, RecoveryPolicy::kEcc, seed));
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
      fc.rate(site) = 2000;
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

u64 fnv1a(const std::string& s) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// Golden anchor for the storage strike path: every site under every
// recovery policy, at a light and a heavy rate, on scheme_mix (adap-2).
// Each point pins its campaign table row (counts, damage and the cycle
// and energy cost of protection) and an FNV-1a digest of its event log
// (the word, bit and outcome of every fault). Values were captured with
// one hand-written strike loop per storage site and must survive any
// rewrite of the injector.
TEST(FaultCampaign, EverySiteEveryRecoveryAnchor) {
  struct Expected {
    const char* row;  // campaign_table CSV row after the net column
    u64 log_digest;
  };
  static const Expected kAnchors[] = {
      {"input_sram,bit_flip,500,none,6,0,0,0,6,0,0,"
       "0,0,0.000,0.000", 0x72dcb206d9a43b38ull},
      {"input_sram,bit_flip,500,parity,18,18,13,5,0,9,0,"
       "0,0,39.155,124.570", 0x4a3b708568be87a3ull},
      {"input_sram,bit_flip,500,ecc,5,5,5,0,0,0,0,"
       "0,0,0.411,0.061", 0xab4e1fa86ea2bd81ull},
      {"input_sram,bit_flip,2e+04,none,271,0,0,0,271,0,0,"
       "0,0,0.000,0.000", 0xd81d86d3e55e3e9eull},
      {"input_sram,bit_flip,2e+04,parity,1060,1060,798,262,0,15,0,"
       "0,0,78.722,172.072", 0x4647cc8d54406e83ull},
      {"input_sram,bit_flip,2e+04,ecc,275,275,275,0,0,0,0,"
       "0,0,22.609,0.061", 0xc0a58458a658f758ull},
      {"weight_sram,bit_flip,500,none,11,0,0,0,11,0,0,"
       "0,0,0.000,0.000", 0x21b2d0e21424c481ull},
      {"weight_sram,bit_flip,500,parity,41,41,33,8,0,11,0,"
       "0,0,44.181,138.287", 0xb1afc190c34b4e52ull},
      {"weight_sram,bit_flip,500,ecc,12,12,12,0,0,0,0,"
       "0,0,0.987,0.082", 0x21c198b7fdf4632full},
      {"weight_sram,bit_flip,2e+04,none,469,0,0,0,469,0,0,"
       "10,0.1016,0.000,0.000", 0x5427d3b87950d0d9ull},
      {"weight_sram,bit_flip,2e+04,parity,1829,1829,1378,451,0,12,0,"
       "10,0.1016,94.528,169.795", 0x94168bd4cbc674beull},
      {"weight_sram,bit_flip,2e+04,ecc,451,451,451,0,0,0,0,"
       "0,0,37.079,0.082", 0x5f772e73605f477bull},
      {"bias_sram,bit_flip,500,none,0,0,0,0,0,0,0,"
       "0,0,0.000,0.000", 0xcbf29ce484222325ull},
      {"bias_sram,bit_flip,500,parity,0,0,0,0,0,0,0,"
       "0,0,0.000,0.000", 0xcbf29ce484222325ull},
      {"bias_sram,bit_flip,500,ecc,0,0,0,0,0,0,0,"
       "0,0,0.000,0.000", 0xcbf29ce484222325ull},
      {"bias_sram,bit_flip,2e+04,none,3,0,0,0,3,0,0,"
       "0,0,0.000,0.000", 0x3711c85ab07d99c2ull},
      {"bias_sram,bit_flip,2e+04,parity,2,2,2,0,0,2,0,"
       "0,0,4.316,31.031", 0xa57299e537bec12cull},
      {"bias_sram,bit_flip,2e+04,ecc,1,1,1,0,0,0,0,"
       "0,0,0.082,0.000", 0xc51f94db95dfa5c6ull},
      {"accum_sram,bit_flip,500,none,18,0,0,0,18,0,0,"
       "0,0,0.000,0.000", 0xbd09662917ceea8aull},
      {"accum_sram,bit_flip,500,parity,66,66,49,17,0,9,0,"
       "0,0,58.291,169.151", 0xcd6b633368f27083ull},
      {"accum_sram,bit_flip,500,ecc,12,12,12,0,0,0,0,"
       "0,0,0.987,0.149", 0xa56238147d7c6ac0ull},
      {"accum_sram,bit_flip,2e+04,none,641,0,0,0,641,0,0,"
       "0,0,0.000,0.000", 0x2b8a51ff080d48cdull},
      {"accum_sram,bit_flip,2e+04,parity,2608,2608,1962,646,0,9,0,"
       "0,0,110.539,169.151", 0x7d3a8ae607407abaull},
      {"accum_sram,bit_flip,2e+04,ecc,642,642,642,0,0,0,0,"
       "0,0,52.782,0.149", 0x76c7182ad62d27f9ull},
      {"dram,bit_flip,500,none,20,0,0,0,20,0,0,"
       "0,0,0.000,0.000", 0xad6c2082a31e0ea9ull},
      {"dram,bit_flip,500,parity,21,21,21,0,0,0,0,"
       "0,0,1.727,39.763", 0x11ceffa1900ce07bull},
      {"dram,bit_flip,500,ecc,19,19,19,0,0,0,0,"
       "0,0,1.562,39.763", 0xc13e1779d431a6dfull},
      {"dram,bit_flip,2e+04,none,704,0,0,0,704,0,0,"
       "10,0.1016,0.000,0.000", 0xd8a98559ae654a64ull},
      {"dram,bit_flip,2e+04,parity,680,680,680,0,0,0,0,"
       "0,0,55.907,39.763", 0x0c26f562716db840ull},
      {"dram,bit_flip,2e+04,ecc,695,695,695,0,0,0,0,"
       "0,0,57.140,39.763", 0x92a8940fdf0cbeffull},
      {"dma,burst,500,none,21,0,0,0,21,0,0,"
       "10,0.8945,0.000,0.000", 0xf047757542e22e5full},
      {"dma,burst,500,parity,84,84,67,17,0,0,26,"
       "10,0.1016,304.568,144.232", 0x71915e3e71882e08ull},
      {"dma,burst,500,ecc,71,71,50,21,0,0,21,"
       "10,0.8516,277.807,132.870", 0x9a09736a49477396ull},
      {"dma,burst,2e+04,none,702,0,0,0,702,0,0,"
       "10,0.1016,0.000,0.000", 0xfe9d494a02a2a8e8ull},
      {"dma,burst,2e+04,parity,2919,2919,2182,737,0,0,30,"
       "10,0.1016,309.809,145.186", 0x4bead195f9c228f5ull},
      {"dma,burst,2e+04,ecc,2939,2939,2195,744,0,0,30,"
       "10,0.1016,309.275,145.166", 0x5f17759786a8bf78ull},
      {"pe_lane,stuck_at,500,none,2,0,0,0,2,0,0,"
       "0,0,0.000,0.000", 0x4a48414bffaa8a31ull},
      {"pe_lane,stuck_at,500,parity,2,0,0,0,2,0,0,"
       "0,0,0.000,0.000", 0x12f10e07bf2c9680ull},
      {"pe_lane,stuck_at,500,ecc,1,0,0,0,1,0,0,"
       "0,0,0.000,0.000", 0xeff7e20a65079d57ull},
      {"pe_lane,stuck_at,2e+04,none,4,0,0,0,4,0,0,"
       "0,0,0.000,0.000", 0xfcc7c512d9c7dc0bull},
      {"pe_lane,stuck_at,2e+04,parity,4,0,0,0,4,0,0,"
       "0,0,0.000,0.000", 0x8935d2d42b93f688ull},
      {"pe_lane,stuck_at,2e+04,ecc,4,0,0,0,4,0,0,"
       "0,0,0.000,0.000", 0x8511352d111282b2ull},
  };
  CampaignSpec cs;
  cs.nets = {zoo::scheme_mix_cnn()};
  cs.config = AcceleratorConfig::paper_16_16();
  for (int i = 0; i < kFaultSiteCount; ++i)
    cs.sites.push_back(static_cast<FaultSite>(i));
  cs.rates_per_mword = {500, 20000};
  cs.recoveries = {RecoveryPolicy::kNone, RecoveryPolicy::kParityRetry,
                   RecoveryPolicy::kEcc};
  const auto r = run_fault_campaign(cs);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  std::istringstream csv(campaign_table(r.value()).to_csv());
  std::string row;
  std::getline(csv, row);  // header
  ASSERT_EQ(r.value().size(), std::size(kAnchors));
  for (std::size_t i = 0; i < r.value().size(); ++i) {
    std::getline(csv, row);
    EXPECT_EQ(row, std::string("scheme_mix_cnn,") + kAnchors[i].row);
    EXPECT_EQ(fnv1a(log_of(r.value()[i])), kAnchors[i].log_digest) << row;
  }
}

// Every FaultStats field, one line, for whole-struct comparisons.
std::string stats_line(const FaultStats& st) {
  std::string s;
  for (const i64 v : st.injected) s += std::to_string(v) + " ";
  for (const i64 v : st.code_words) s += std::to_string(v) + " ";
  for (const i64 v :
       {st.corrupted_words, st.detected, st.corrected, st.silent,
        st.uncorrected, st.dma_retries, st.dma_retry_words,
        st.instruction_replays, st.overhead_cycles})
    s += std::to_string(v) + " ";
  return s;
}

// The parameter loader writes rows with Dram::write_words. Under an
// attached injector that must be indistinguishable from one
// StridedRun::put per word (the executor's output store path): same
// memory, same FaultStats (code words included), same event log, same
// pending overhead.
TEST(FaultInjector, DramWriteWordsMatchesPerWordWrites) {
  std::vector<std::int16_t> data(3000);
  Rng rng(5);
  for (auto& v : data)
    v = static_cast<std::int16_t>(rng.next_int(-32768, 32767));
  const i64 rows[] = {1, 7, 64, 500, 2428};  // sums to data.size()
  for (const RecoveryPolicy rec :
       {RecoveryPolicy::kNone, RecoveryPolicy::kParityRetry,
        RecoveryPolicy::kEcc}) {
    SCOPED_TRACE(recovery_policy_name(rec));
    FaultConfig fc;
    fc.seed = 9;
    fc.recovery = rec;
    fc.rate(FaultSite::kDram) = 20000;
    FaultInjector bulk_inj(fc), word_inj(fc);
    Dram bulk(4096), word(4096);
    bulk.attach_fault(&bulk_inj);
    word.attach_fault(&word_inj);
    i64 a = 100;
    for (const i64 n : rows) {
      bulk.write_words(a, n, data.data() + (a - 100));
      const Dram::StridedRun run = word.strided_run(a, 1, n);
      for (i64 i = 0; i < n; ++i)
        run.put(i, data[static_cast<std::size_t>(a - 100 + i)]);
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

// A layer whose outputs land in several consumer cubes stores each word to
// every cube before the next word, after the PE stuck-lane filter, so the
// PE event log and the DRAM strike stream interleave word by word. With
// the DRAM, PE and accumulator sites armed hard on mini_inception (its
// stem feeds four branches) under a classic and an adaptive policy, the
// DRAM image, FaultStats and event log are pinned to values captured with
// the word-at-a-time store path.
TEST(FaultInjector, MultiMapStoresKeepTheHookOrder) {
  struct Expected {
    Policy policy;
    u64 dram_digest;
    const char* stats;
    u64 log_digest;
  };
  static const Expected kAnchors[] = {
      {Policy::kFixedInter, 0xffebc2833dc5da25ull,
       "0 0 0 0 426 0 8 0 0 0 0 0 0 0 426 0 0 434 0 0 0 0 0 ",
       0x9aa0ca4902bdb9d8ull},
      {Policy::kAdaptive2, 0xa0221ebde82d89e3ull,
       "0 0 0 831 403 0 8 0 0 0 0 0 0 0 1370 0 0 1242 0 0 0 0 0 ",
       0x05040d311a2c999full},
  };
  const Network net = zoo::mini_inception();
  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  const auto params = init_net_params<Fixed16>(net, 42);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 43);
  for (const Expected& want : kAnchors) {
    SCOPED_TRACE(policy_name(want.policy));
    const auto compiled = compile_network(net, want.policy, config);
    ASSERT_TRUE(compiled.is_ok());
    std::size_t max_maps = 0;
    for (const auto& maps : compiled.value().layout.out_maps)
      max_maps = std::max(max_maps, maps.size());
    ASSERT_GE(max_maps, 2u);

    FaultConfig fc;
    fc.seed = 11;
    fc.recovery = RecoveryPolicy::kNone;
    for (const FaultSite site :
         {FaultSite::kDram, FaultSite::kPeLane, FaultSite::kAccumSram})
      fc.rate(site) = 20000;
    FaultInjector injector(fc);
    SimExecutor sim(net, compiled.value(), config);
    sim.attach_fault(&injector);
    (void)sim.run(input, params);

    const FaultStats& st = injector.stats();
    EXPECT_GT(st.injected[static_cast<std::size_t>(FaultSite::kDram)], 0);
    EXPECT_GT(st.injected[static_cast<std::size_t>(FaultSite::kPeLane)], 0);
    const Dram& dram = sim.machine().dram();
    const std::int16_t* image = dram.read_span(0, dram.capacity_words());
    const std::string bytes(
        reinterpret_cast<const char*>(image),
        static_cast<std::size_t>(dram.capacity_words()) * sizeof(*image));
    EXPECT_EQ(fnv1a(bytes), want.dram_digest);
    EXPECT_EQ(stats_line(st), want.stats);
    EXPECT_EQ(fnv1a(injector.event_log()), want.log_digest);
  }
}

// The event log keeps kMaxLoggedEvents events and counts the rest. The
// lenet5 weight_sram point at 2e4/Mword under parity, at the seed the
// seven-site CI campaign grid (tiny_cnn,lenet5,scheme_mix, rates
// 500,20000, recoveries none,parity,ecc, campaign seed 1) gives it,
// injects 4,877 faults, logs 4,096 and carries the other 781 as
// dropped_events, the count fault-campaign --events prints after the log.
TEST(FaultCampaign, EventLogCapCountsDroppedEvents) {
  FaultPointSpec spec;
  spec.site = FaultSite::kWeightSram;
  spec.rate_per_mword = 20000;
  spec.recovery = RecoveryPolicy::kParityRetry;
  spec.seed = 0x536000f4bd6ae8f8ull;
  const auto r = run_fault_point(zoo::lenet5(), Policy::kAdaptive2,
                                 AcceleratorConfig::paper_16_16(), spec);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().stats.total_injected(), 4877);
  EXPECT_EQ(static_cast<i64>(r.value().events.size()), kMaxLoggedEvents);
  EXPECT_EQ(r.value().dropped_events, 781);
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
