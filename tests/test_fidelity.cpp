// Two-fidelity cross-validation (DESIGN.md §12): the functional executor
// must be bit-identical to the cycle-level simulator on every zoo net,
// under every SIMD backend and any run_many jobs count, while its counter
// estimates (the analytical model) track the simulator's exact accounting
// within the recorded tolerance. Any divergence here means the fast
// serving tier is returning different bytes than the oracle — a release
// blocker, which is why ci_check.sh runs this suite under TSan and
// ASan+UBSan as well.
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "cbrain/core/cbrain.hpp"
#include "cbrain/func/crosscheck.hpp"
#include "cbrain/func/executor.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/simd/simd.hpp"
#include "support.hpp"

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define CBRAIN_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define CBRAIN_TEST_SANITIZED 1
#endif
#endif
#ifndef CBRAIN_TEST_SANITIZED
#define CBRAIN_TEST_SANITIZED 0
#endif

namespace cbrain::test {
namespace {

constexpr std::uint64_t kSeed = 42;

struct ZooEntry {
  const char* name;
  Network (*make)();
  bool heavy;  // whole-net cycle sim takes seconds; skip under sanitizers
};

const ZooEntry kZoo[] = {
    {"tiny_cnn", zoo::tiny_cnn, false},
    {"scheme_mix", zoo::scheme_mix_cnn, false},
    {"mini_inception", zoo::mini_inception, false},
    {"lenet5", zoo::lenet5, false},
    {"nin", zoo::nin, true},
    {"alexnet", zoo::alexnet, true},
    {"zfnet", zoo::zfnet, true},
    {"squeezenet", zoo::squeezenet, true},
    {"googlenet", zoo::googlenet, true},
    {"vgg16", zoo::vgg16, true},
    {"resnet18", zoo::resnet18, true},
    {"mobilenetv1", zoo::mobilenetv1, true},
};

// One cycle-exact simulation per zoo net for the whole binary: the sim
// output is bit-identical across SIMD backends and jobs counts (proven by
// test_simd / test_engine), so every functional-tier variant below can
// compare against the same cached oracle bytes.
struct Oracle {
  Network net;
  NetParamsData<Fixed16> params;
  Tensor3<Fixed16> input;
  SimResult sim;
};

const Oracle& oracle_for(const ZooEntry& z) {
  static std::map<std::string, std::unique_ptr<Oracle>> cache;
  auto& slot = cache[z.name];
  if (!slot) {
    auto o = std::make_unique<Oracle>(Oracle{z.make(), {}, {}, {}});
    o->params = init_net_params<Fixed16>(o->net, kSeed);
    o->input = random_input<Fixed16>(o->net.layer(0).out_dims, kSeed + 1);
    auto compiled =
        compile_network(o->net, Policy::kAdaptive2, AcceleratorConfig{});
    CBRAIN_CHECK(compiled.is_ok(), compiled.status().to_string());
    SimExecutor sim(o->net, compiled.value(), AcceleratorConfig{});
    o->sim = sim.run(o->input, o->params);
    slot = std::move(o);
  }
  return *slot;
}

// Restores the dispatch backend even when an assertion fails mid-test.
struct BackendGuard {
  ~BackendGuard() { simd::select_backend("auto"); }
};

// --- whole-net output bit-equality, every zoo net × {scalar, best} ------

class ZooFidelity : public ::testing::TestWithParam<int> {};

TEST_P(ZooFidelity, FunctionalMatchesCycleBitExact) {
  const ZooEntry& z = kZoo[GetParam()];
  if (CBRAIN_TEST_SANITIZED && z.heavy)
    GTEST_SKIP() << "whole-net cycle sim too slow under sanitizers";
  const Oracle& o = oracle_for(z);
  const AcceleratorConfig config;
  auto compiled = compile_network(o.net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());

  BackendGuard guard;
  for (const char* backend : {"scalar", "auto"}) {
    SCOPED_TRACE(backend);
    ASSERT_TRUE(simd::select_backend(backend));
    func::FuncExecutor func(o.net, compiled.value(), config);
    func.load_params(o.params);
    const SimResult r = func.infer(o.input);
    EXPECT_TRUE(tensors_equal(o.sim.final_output, r.final_output));
  }
}

INSTANTIATE_TEST_SUITE_P(AllNets, ZooFidelity,
                         ::testing::Range(0, static_cast<int>(std::size(kZoo))),
                         [](const auto& info) {
                           return std::string(kZoo[info.param].name);
                         });

// --- the fast path, pinned across the zoo ---------------------------------

// Every conv filter and FC row of every zoo net under the default
// init_net_params scale passes the filter-sum contract, so every layer
// packs for its fast kernel (tile, depthwise or the multi-RHS dot), at
// several seeds. A silent fall to an exact kernel would keep every output
// bit and cost several-fold in serving, so only this test would notice.
// Rows are checked one at a time so VGG-16's FC layers do not double peak
// memory.
class ZooPack : public ::testing::TestWithParam<int> {};

TEST_P(ZooPack, EveryLayerPacksFast) {
  const ZooEntry& z = kZoo[GetParam()];
  if (CBRAIN_TEST_SANITIZED && z.heavy)
    GTEST_SKIP() << "whole-net param synthesis too slow under sanitizers";
  const Network net = z.make();
  std::vector<std::int16_t> row;
  for (const std::uint64_t seed : {1u, 42u, 977u}) {
    const auto params = init_net_params<Fixed16>(net, seed);
    for (const Layer& l : net.layers()) {
      if (!l.is_conv() && !l.is_fc()) continue;
      const Tensor4<Fixed16>& w =
          params.per_layer[static_cast<std::size_t>(l.id)].weights;
      const i64 dout = l.is_conv() ? l.conv().dout : l.fc().dout;
      const i64 row_len = w.dims().count() / dout;
      row.resize(static_cast<std::size_t>(row_len));
      for (i64 o = 0; o < dout; ++o) {
        for (i64 i = 0; i < row_len; ++i)
          row[static_cast<std::size_t>(i)] =
              w.raw_data()[o * row_len + i].raw();
        ASSERT_TRUE(simd::filter_sum_ok(row.data(), row_len, 1, row_len))
            << "seed " << seed << " layer " << l.name << " row " << o;
      }
    }
  }
}

// FuncExecutor::load_params packs the whole net in one parallel pass
// over chunks of pack units; it must equal the serial packing rule
// (weights, bias_acc, exact) layer for layer, and no layer may pack
// exact.
TEST_P(ZooPack, ParallelPackMatchesSerialReference) {
  const ZooEntry& z = kZoo[GetParam()];
  if (CBRAIN_TEST_SANITIZED && z.heavy)
    GTEST_SKIP() << "whole-net param synthesis too slow under sanitizers";
  const Network net = z.make();
  const AcceleratorConfig config;
  auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  const auto params = init_net_params<Fixed16>(net, kSeed);
  func::FuncExecutor func(net, compiled.value(), config);
  func.load_params(params);
  expect_pack_matches_serial(net, params, *func.packed_params());
  for (const Layer& l : net.layers())
    EXPECT_FALSE((*func.packed_params())[static_cast<std::size_t>(l.id)].exact)
        << l.name;
}

INSTANTIATE_TEST_SUITE_P(AllNets, ZooPack,
                         ::testing::Range(0, static_cast<int>(std::size(kZoo))),
                         [](const auto& info) {
                           return std::string(kZoo[info.param].name);
                         });

// --- analytical-model accuracy: functional counters vs sim accounting ---

// The functional tier reports the model's estimates; the recorded
// tolerance they must hold against the simulator's exact per-layer
// accounting. The model is built to agree *exactly* (DESIGN.md §5 and
// expect_counters_match throughout the suite), so any nonzero drift that
// stays under this bound still deserves a look — the bound exists to make
// the contract explicit where the fast tier's numbers come from.
constexpr double kCycleTolerance = 0.01;   // 1% relative, per layer
constexpr double kEnergyTolerance = 0.01;

class ModelAccuracy : public ::testing::TestWithParam<int> {};

TEST_P(ModelAccuracy, EstimatesWithinRecordedTolerance) {
  const ZooEntry& z = kZoo[GetParam()];
  if (CBRAIN_TEST_SANITIZED && z.heavy)
    GTEST_SKIP() << "whole-net cycle sim too slow under sanitizers";
  const Oracle& o = oracle_for(z);  // shares the binary-wide cycle sim
  const AcceleratorConfig config;
  auto compiled = compile_network(o.net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  func::FuncExecutor func(o.net, compiled.value(), config);
  func.load_params(o.params);
  const SimResult estimated = func.infer(o.input);

  int active_layers = 0;
  for (const Layer& l : o.net.layers()) {
    const auto idx = static_cast<std::size_t>(l.id);
    const TrafficCounters& sim_c = o.sim.per_layer[idx];
    const TrafficCounters& model_c = estimated.per_layer[idx];
    if (sim_c.total_cycles == 0 && model_c.total_cycles == 0) continue;
    ++active_layers;
    SCOPED_TRACE(l.name);
    const double sim_cycles = static_cast<double>(sim_c.total_cycles);
    const double model_cycles = static_cast<double>(model_c.total_cycles);
    EXPECT_LE(std::abs(model_cycles - sim_cycles) /
                  std::max(sim_cycles, 1.0),
              kCycleTolerance)
        << "model " << model_c.total_cycles << " vs sim "
        << sim_c.total_cycles;
    const double sim_uj = compute_energy(sim_c).total_uj();
    const double model_uj = compute_energy(model_c).total_uj();
    EXPECT_LE(std::abs(model_uj - sim_uj) / std::max(sim_uj, 1.0),
              kEnergyTolerance)
        << "model " << model_uj << " uJ vs sim " << sim_uj << " uJ";
  }
  EXPECT_GT(active_layers, 0);
}

// The report hook itself (what `cbrain_cli fidelity-check` prints): the
// full cross_validate path on a net with every layer kind.
TEST(ModelAccuracyReport, CrossValidateTableHoldsTolerance) {
  const func::FidelityReport report = func::cross_validate(
      zoo::scheme_mix_cnn(), Policy::kAdaptive2, AcceleratorConfig{}, kSeed);
  EXPECT_TRUE(report.outputs_identical)
      << report.mismatched_words << " words diverged";
  EXPECT_FALSE(report.layers.empty());
  EXPECT_LE(report.max_cycle_rel_err(), kCycleTolerance);
  EXPECT_LE(report.max_energy_rel_err(), kEnergyTolerance);
  EXPECT_NE(report.table().find("bit-identical"), std::string::npos);
}

// Aggregate model-error view: per-layer percentiles are ordered, the max
// matches the per-layer max, and the whole-net estimate (where per-layer
// errors of opposite sign partially cancel) is no worse than the worst
// layer.
TEST(ModelAccuracyReport, AggregateErrorPercentiles) {
  const func::FidelityReport report = func::cross_validate(
      zoo::scheme_mix_cnn(), Policy::kAdaptive2, AcceleratorConfig{}, kSeed);
  for (const func::ErrorAggregate& a :
       {report.cycle_errors(), report.energy_errors()}) {
    EXPECT_LE(a.p50, a.p90);
    EXPECT_LE(a.p90, a.max);
    EXPECT_LE(a.whole_net, a.max + 1e-12);
    EXPECT_GE(a.whole_net, 0.0);
  }
  EXPECT_DOUBLE_EQ(report.cycle_errors().max, report.max_cycle_rel_err());
  EXPECT_DOUBLE_EQ(report.energy_errors().max, report.max_energy_rel_err());
  EXPECT_NE(report.table().find("aggregate:"), std::string::npos);
}

// The satellite's named targets (AlexNet/VGG16/GoogLeNet/NiN) are the
// heavy entries; the small nets keep the property covered under
// sanitizers too.
INSTANTIATE_TEST_SUITE_P(AllNets, ModelAccuracy,
                         ::testing::Range(0, static_cast<int>(std::size(kZoo))),
                         [](const auto& info) {
                           return std::string(kZoo[info.param].name);
                         });

// --- per-layer equality: every intermediate cube matches the sim --------

TEST(LayerFidelity, TinyCnnLayerByLayer) {
  const Network net = zoo::tiny_cnn();
  expect_func_matches_sim_per_layer(
      net, tiny_config(4, 4), init_net_params<Fixed16>(net, 7),
      random_input<Fixed16>(net.layer(0).out_dims, 99));
}

// MobileNetV1's 13 depthwise layers run the functional tier's staged
// dw_conv_s16 path (its widest planes, 112x112, and its narrowest, 7x7,
// included); every cube must match the simulator's, on both backends.
TEST(LayerFidelity, MobileNetV1LayerByLayer) {
  if (CBRAIN_TEST_SANITIZED)
    GTEST_SKIP() << "whole-net cycle sim too slow under sanitizers";
  const Network net = zoo::mobilenetv1();
  const auto params = init_net_params<Fixed16>(net, kSeed);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, kSeed + 1);
  BackendGuard guard;
  for (const char* backend : {"scalar", "auto"}) {
    SCOPED_TRACE(backend);
    ASSERT_TRUE(simd::select_backend(backend));
    expect_func_matches_sim_per_layer(net, AcceleratorConfig{}, params,
                                      input);
  }
}

// Tiny buffers force multi-band/din/dout tiling in the sim; the
// functional path must agree under every policy, not just adap-2.
TEST(LayerFidelity, SchemeMixAllPolicies) {
  const Network net = zoo::scheme_mix_cnn();
  const AcceleratorConfig config = tiny_config(4, 4);
  auto params = init_net_params<Fixed16>(net, kSeed);
  auto input = random_input<Fixed16>(net.layer(0).out_dims, kSeed + 1);
  for (Policy policy : paper_policies()) {
    SCOPED_TRACE(policy_name(policy));
    auto compiled = compile_network(net, policy, config);
    ASSERT_TRUE(compiled.is_ok());
    SimExecutor sim(net, compiled.value(), config);
    const SimResult s = sim.run(input, params);
    func::FuncExecutor func(net, compiled.value(), config);
    func.load_params(params);
    const SimResult f = func.infer(input);
    EXPECT_TRUE(tensors_equal(s.final_output, f.final_output));
  }
}

// --- engine threading: run_many at jobs 1/4/16, both backends -----------

class RunManyFidelity
    : public ::testing::TestWithParam<std::tuple<std::string, i64>> {};

TEST_P(RunManyFidelity, FunctionalServesOracleBytes) {
  const auto [backend, jobs] = GetParam();
  BackendGuard guard;
  ASSERT_TRUE(simd::select_backend(backend));

  const Network net = zoo::mini_inception();
  const AcceleratorConfig config;
  auto params = init_net_params<Fixed16>(net, kSeed);
  std::vector<Tensor3<Fixed16>> inputs;
  for (int i = 0; i < 6; ++i)
    inputs.push_back(
        random_input<Fixed16>(net.layer(0).out_dims, kSeed + 10 + i));

  engine::Engine eng{AcceleratorConfig{}};
  // Oracle: the cycle tier, serially (jobs invariance of the cycle tier
  // is test_engine's property; here it pins the expected bytes).
  const auto cycle = eng.run_many(net, Policy::kAdaptive2, params, inputs, 1);
  const auto func = eng.run_many(net, Policy::kAdaptive2, params, inputs,
                                 jobs, nullptr, Fidelity::kFunctional);
  ASSERT_EQ(cycle.size(), func.size());
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_TRUE(
        tensors_equal(cycle[i].final_output, func[i].final_output));
  }
}

INSTANTIATE_TEST_SUITE_P(
    BackendsAndJobs, RunManyFidelity,
    ::testing::Combine(::testing::Values<std::string>("scalar", "auto"),
                       ::testing::Values<i64>(1, 4, 16)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_jobs" +
             std::to_string(std::get<1>(info.param));
    });

// --- fidelity knob plumbing ---------------------------------------------

TEST(FidelityKnob, StructuralHashSeparatesTiers) {
  const Network net = zoo::tiny_cnn();
  const AcceleratorConfig config;
  const u64 cycle_key = engine::structural_hash(net, Policy::kAdaptive2,
                                                config, Fidelity::kCycle);
  const u64 func_key = engine::structural_hash(
      net, Policy::kAdaptive2, config, Fidelity::kFunctional);
  EXPECT_NE(cycle_key, func_key);
  // The 3-arg form is the cycle tier — existing callers keep their keys.
  EXPECT_EQ(engine::structural_hash(net, Policy::kAdaptive2, config),
            cycle_key);
}

TEST(FidelityKnob, CompileCacheKeysIncludeFidelity) {
  engine::Engine eng{AcceleratorConfig{}};
  const Network net = zoo::tiny_cnn();
  eng.compile(net, Policy::kAdaptive2, Fidelity::kCycle);
  EXPECT_EQ(eng.cache_size(), 1);
  eng.compile(net, Policy::kAdaptive2, Fidelity::kFunctional);
  EXPECT_EQ(eng.cache_size(), 2);  // a miss: tiers never alias
  eng.compile(net, Policy::kAdaptive2, Fidelity::kFunctional);
  EXPECT_EQ(eng.cache_size(), 2);  // a hit within the functional tier
  EXPECT_EQ(eng.cache_hits(), 1);
}

TEST(FidelityKnob, SessionReportsTierAndSimulateAgrees) {
  CBrain cb{AcceleratorConfig{}};
  const Network net = zoo::tiny_cnn();
  auto params = init_net_params<Fixed16>(net, kSeed);
  auto input = random_input<Fixed16>(net.layer(0).out_dims, kSeed + 1);

  auto cycle_s =
      cb.engine().open_session(net, Policy::kAdaptive2, params);
  auto func_s = cb.engine().open_session(net, Policy::kAdaptive2, params,
                                         Fidelity::kFunctional);
  EXPECT_EQ(cycle_s->fidelity(), Fidelity::kCycle);
  EXPECT_EQ(func_s->fidelity(), Fidelity::kFunctional);
  EXPECT_TRUE(func_s->params_loaded());

  const SimResult via_cycle =
      cb.simulate(net, Policy::kAdaptive2, input, params);
  const SimResult via_func = cb.simulate(net, Policy::kAdaptive2, input,
                                         params, Fidelity::kFunctional);
  EXPECT_TRUE(
      tensors_equal(via_cycle.final_output, via_func.final_output));
  // Session infer matches the one-shot paths at both tiers.
  EXPECT_TRUE(tensors_equal(cycle_s->infer(input).final_output,
                            func_s->infer(input).final_output));
}

TEST(FidelityKnob, FunctionalSessionIsReusable) {
  // Serving contract: infer x N on one functional session is bit-identical
  // to N fresh sessions (weight residency can't leak state between
  // requests).
  engine::Engine eng{AcceleratorConfig{}};
  const Network net = zoo::scheme_mix_cnn();
  auto params = init_net_params<Fixed16>(net, kSeed);
  auto session = eng.open_session(net, Policy::kAdaptive2, params,
                                  Fidelity::kFunctional);
  for (int i = 0; i < 3; ++i) {
    auto input =
        random_input<Fixed16>(net.layer(0).out_dims, kSeed + 20 + i);
    const SimResult reused = session->infer(input);
    auto fresh = eng.open_session(net, Policy::kAdaptive2, params,
                                  Fidelity::kFunctional);
    EXPECT_TRUE(tensors_equal(fresh->infer(input).final_output,
                              reused.final_output));
  }
  EXPECT_EQ(session->inferences(), 3);
}

TEST(FidelityKnob, NameParsingRoundTrips) {
  EXPECT_EQ(parse_fidelity("cycle"), Fidelity::kCycle);
  EXPECT_EQ(parse_fidelity("functional"), Fidelity::kFunctional);
  EXPECT_FALSE(parse_fidelity("exact").has_value());
  EXPECT_STREQ(fidelity_name(Fidelity::kCycle), "cycle");
  EXPECT_STREQ(fidelity_name(Fidelity::kFunctional), "functional");
}

TEST(FidelityKnob, FaultInjectionRequiresCycleTier) {
  engine::Engine eng{AcceleratorConfig{}};
  const Network net = zoo::tiny_cnn();
  auto session = eng.open_session(net, Policy::kAdaptive2,
                                  Fidelity::kFunctional);
  EXPECT_THROW(session->attach_fault(nullptr), CheckError);
}

// --- pmaddwd fast-path fallback ------------------------------------------

// The functional tier takes its int32 kernels only when a layer's weights
// pass the filter-sum contract (simd::filter_sum_ok, checked at pack
// time), else their exact twins. Poisoning every 7th weight word with
// -32768 raws breaks the contract of every conv filter and FC row with
// two of them, which then run dot_s16_mrhs_exact or the exact conv
// kernels. Either way the outputs must be bit-identical to the
// simulator's.
TEST(FastPathFallback, MinRawWeightsStayBitIdentical) {
  const Network net = zoo::tiny_cnn();
  auto params = init_net_params<Fixed16>(net, kSeed);
  bool poisoned = false;
  for (const Layer& l : net.layers()) {
    if (!l.is_conv() && !l.is_fc()) continue;
    auto& w = params.per_layer[static_cast<std::size_t>(l.id)].weights;
    // Every 7th weight word to the int16 extreme.
    for (std::size_t i = 0; i < w.storage().size(); i += 7)
      w.storage()[i] = Fixed16::from_raw(Fixed16::kRawMin);
    poisoned = true;
  }
  ASSERT_TRUE(poisoned);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, kSeed + 1);
  auto compiled =
      compile_network(net, Policy::kAdaptive2, AcceleratorConfig{});
  ASSERT_TRUE(compiled.is_ok());

  SimExecutor sim(net, compiled.value(), AcceleratorConfig{});
  const SimResult cycle = sim.run(input, params);

  func::FuncExecutor fexec(net, compiled.value(), AcceleratorConfig{});
  fexec.load_params(params);
  const SimResult fast = fexec.infer(input);
  ASSERT_TRUE(tensors_equal(cycle.final_output, fast.final_output));
}

// --- divergence counter --------------------------------------------------

TEST(Divergence, CleanRunLeavesCounterUntouched) {
  auto& reg = obs::Registry::global();
  const i64 before = reg.counter("func.divergence_total").value();
  const auto report = func::cross_validate(
      zoo::tiny_cnn(), Policy::kAdaptive2, tiny_config(4, 4), kSeed);
  EXPECT_TRUE(report.outputs_identical);
  EXPECT_EQ(report.mismatched_words, 0);
  EXPECT_GT(report.total_words, 0);
  EXPECT_EQ(reg.counter("func.divergence_total").value(), before);
}

}  // namespace
}  // namespace cbrain::test
