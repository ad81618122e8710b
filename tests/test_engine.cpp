// The inference-serving engine (engine::Engine / engine::Session) and its
// contracts: a weight-resident session serves bit-identical results to
// the single-shot path no matter how many inferences preceded them,
// run_many (run_batches over batches of one) is byte-identical and
// submission-ordered at any jobs count, the compile cache keys on
// structure (never on name), and sessions compose with the
// fault-injection subsystem.
#include "cbrain/engine/engine.hpp"

#include <set>

#include "cbrain/common/thread_pool.hpp"
#include "cbrain/core/cbrain.hpp"
#include "cbrain/fault/fault.hpp"
#include "support.hpp"

namespace cbrain {
namespace {

using test::expect_counters_match;
using test::tensors_equal;
using test::tiny_config;

// Small but non-trivial: conv -> pool -> conv -> fc under the tiny config
// forces multi-band tiling, partial sums, and both host-op paths.
Network serving_net(const std::string& name) {
  Network net(name);
  const LayerId in = net.add_input({3, 8, 8});
  const LayerId c1 =
      net.add_conv(in, "c1", {.dout = 8, .k = 3, .stride = 1, .pad = 1});
  const LayerId p1 =
      net.add_pool(c1, "p1", {.kind = PoolKind::kMax, .k = 2, .stride = 2});
  const LayerId c2 =
      net.add_conv(p1, "c2", {.dout = 8, .k = 3, .stride = 1, .pad = 1});
  net.add_fc(c2, "fc", {.dout = 10});
  return net;
}

// Same name as serving_net("..."), different structure — the collision
// case the name-keyed cache used to get wrong.
Network same_name_different_net(const std::string& name) {
  Network net(name);
  const LayerId in = net.add_input({3, 8, 8});
  const LayerId c1 =
      net.add_conv(in, "c1", {.dout = 4, .k = 5, .stride = 1, .pad = 2});
  net.add_fc(c1, "fc", {.dout = 10});
  return net;
}

Tensor3<Fixed16> input_for(const Network& net, u64 seed) {
  return random_input<Fixed16>(net.layer(0).out_dims, seed);
}

void expect_results_identical(const SimResult& a, const SimResult& b,
                              const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_TRUE(tensors_equal(a.final_output, b.final_output));
  ASSERT_EQ(a.per_layer.size(), b.per_layer.size());
  for (std::size_t i = 0; i < a.per_layer.size(); ++i)
    expect_counters_match(a.per_layer[i], b.per_layer[i],
                          "layer " + std::to_string(i));
}

// The tentpole contract: infer() x N on one weight-resident session is
// bit- and counter-identical to N independent CBrain::simulate calls —
// the machine carries no state between inferences that an inference can
// observe.
TEST(EngineSession, RepeatedInferMatchesFreshSimulateBitwise) {
  const Network net = serving_net("serve_net");
  const AcceleratorConfig config = tiny_config();
  const auto params = init_net_params<Fixed16>(net, 42);

  engine::Engine eng(config);
  auto session = eng.open_session(net, Policy::kAdaptive2, params);
  EXPECT_TRUE(session->params_loaded());

  for (u64 seed : {7u, 8u, 7u, 9u, 7u}) {
    const auto input = input_for(net, seed);
    const SimResult from_session = session->infer(input);
    CBrain fresh(config);
    const SimResult from_scratch =
        fresh.simulate(net, Policy::kAdaptive2, input, params);
    expect_results_identical(from_session, from_scratch,
                             "seed " + std::to_string(seed));
  }
  EXPECT_EQ(session->inferences(), 5);
}

TEST(EngineSession, HotSwapParamsMatchesFreshRun) {
  const Network net = serving_net("serve_net");
  const AcceleratorConfig config = tiny_config();
  const auto input = input_for(net, 3);

  engine::Engine eng(config);
  auto session =
      eng.open_session(net, Policy::kAdaptive2,
                       init_net_params<Fixed16>(net, 42));
  session->infer(input);

  // Reloading different parameters must fully overwrite the old ones.
  const auto params2 = init_net_params<Fixed16>(net, 43);
  session->load_params(params2);
  CBrain fresh(config);
  expect_results_identical(
      session->infer(input),
      fresh.simulate(net, Policy::kAdaptive2, input, params2),
      "after hot swap");
}

// run_many: byte-identical across jobs 1/4/16 and submission-ordered
// (distinct inputs make any permutation visible).
TEST(EngineRunMany, ByteIdenticalAndSubmissionOrderedAcrossJobs) {
  const Network net = serving_net("serve_net");
  const AcceleratorConfig config = tiny_config();
  const auto params = init_net_params<Fixed16>(net, 42);

  constexpr i64 kRequests = 8;
  std::vector<Tensor3<Fixed16>> inputs;
  for (i64 i = 0; i < kRequests; ++i)
    inputs.push_back(input_for(net, 100 + static_cast<u64>(i)));

  // Reference: each input through its own fresh single-shot run.
  std::vector<SimResult> expected;
  for (const auto& input : inputs) {
    CBrain fresh(config);
    expected.push_back(
        fresh.simulate(net, Policy::kAdaptive2, input, params));
  }

  engine::Engine eng(config);
  for (i64 jobs : {1, 4, 16}) {
    engine::ServeStats stats;
    const std::vector<SimResult> got =
        eng.run_many(net, Policy::kAdaptive2, params, inputs, jobs, &stats);
    ASSERT_EQ(got.size(), static_cast<std::size_t>(kRequests));
    EXPECT_EQ(stats.sessions, std::min<i64>(jobs, kRequests));
    EXPECT_EQ(stats.latency_ms.size(), static_cast<std::size_t>(kRequests));
    EXPECT_GT(stats.infer_per_s(), 0.0);
    for (i64 i = 0; i < kRequests; ++i)
      expect_results_identical(
          got[static_cast<std::size_t>(i)],
          expected[static_cast<std::size_t>(i)],
          "jobs " + std::to_string(jobs) + " request " + std::to_string(i));
  }
}

TEST(EngineRunMany, EmptyBatchIsANoOp) {
  const Network net = serving_net("serve_net");
  engine::Engine eng(tiny_config());
  engine::ServeStats stats;
  const auto got =
      eng.run_many(net, Policy::kAdaptive2,
                   init_net_params<Fixed16>(net, 1), {}, 4, &stats);
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(stats.sessions, 0);
  EXPECT_TRUE(stats.latency_ms.empty());
}

// Sessions compose with the fault subsystem: attaching the injector
// before load_params reproduces the single-shot attach-then-run fault
// sequence exactly (same RNG consumption order over the same touched
// words), so outputs, stats, and the event log all match.
TEST(EngineSession, ComposesWithFaultInjector) {
  const Network net = serving_net("serve_net");
  const AcceleratorConfig config = tiny_config();
  const auto params = init_net_params<Fixed16>(net, 42);
  const auto input = input_for(net, 5);

  FaultConfig fc;
  fc.seed = 77;
  fc.recovery = RecoveryPolicy::kEcc;
  fc.rate(FaultSite::kWeightSram) = 2000;

  engine::Engine eng(config);
  FaultInjector session_injector(fc);
  auto session = eng.open_session(net, Policy::kAdaptive2);
  session->attach_fault(&session_injector);
  session->load_params(params);
  const SimResult via_session = session->infer(input);

  FaultInjector direct_injector(fc);
  SimExecutor direct(net, session->compiled(), config);
  direct.attach_fault(&direct_injector);
  const SimResult via_run = direct.run(input, params);

  EXPECT_GT(session_injector.stats().total_injected(), 0);
  EXPECT_TRUE(
      tensors_equal(via_session.final_output, via_run.final_output));
  EXPECT_EQ(session_injector.stats().total_injected(),
            direct_injector.stats().total_injected());
  EXPECT_EQ(session_injector.stats().corrected,
            direct_injector.stats().corrected);
  EXPECT_EQ(session_injector.stats().overhead_cycles,
            direct_injector.stats().overhead_cycles);
  EXPECT_EQ(session_injector.events().size(),
            direct_injector.events().size());
}

// Regression for the name-keyed cache collision: two structurally
// different networks sharing a name must compile to distinct programs
// and simulate to their own (different) outputs.
TEST(EngineCache, SameNamedStructurallyDifferentNetsDoNotCollide) {
  const Network a = serving_net("twin");
  const Network b = same_name_different_net("twin");
  const AcceleratorConfig config = tiny_config();

  EXPECT_NE(engine::structural_hash(a, Policy::kAdaptive2, config),
            engine::structural_hash(b, Policy::kAdaptive2, config));

  // One shared CBrain (shared cache) must serve each net its own program.
  CBrain brain(config);
  const auto params_a = init_net_params<Fixed16>(a, 42);
  const auto params_b = init_net_params<Fixed16>(b, 42);
  const auto input = input_for(a, 6);  // same input dims for both nets
  const SimResult ra =
      brain.simulate(a, Policy::kAdaptive2, input, params_a);
  const SimResult rb =
      brain.simulate(b, Policy::kAdaptive2, input, params_b);
  EXPECT_EQ(brain.engine().cache_size(), 2);

  // Against per-net fresh instances (no shared state at all).
  CBrain fresh_a(config);
  CBrain fresh_b(config);
  expect_results_identical(
      ra, fresh_a.simulate(a, Policy::kAdaptive2, input, params_a), "a");
  expect_results_identical(
      rb, fresh_b.simulate(b, Policy::kAdaptive2, input, params_b), "b");
  EXPECT_FALSE(tensors_equal(ra.final_output, rb.final_output));
}

// The flip side: the key is structural, so the *name* must not matter —
// renamed but identical nets share one cached program.
TEST(EngineCache, StructurallyIdenticalNetsShareOneProgram) {
  const Network a = serving_net("first_name");
  const Network b = serving_net("second_name");
  const AcceleratorConfig config = tiny_config();

  EXPECT_EQ(engine::structural_hash(a, Policy::kAdaptive2, config),
            engine::structural_hash(b, Policy::kAdaptive2, config));

  engine::Engine eng(config);
  const auto pa = eng.compile(a, Policy::kAdaptive2);
  const auto pb = eng.compile(b, Policy::kAdaptive2);
  EXPECT_EQ(pa.get(), pb.get());  // literally the same program object
  EXPECT_EQ(eng.cache_size(), 1);
  EXPECT_EQ(eng.cache_misses(), 1);
  EXPECT_EQ(eng.cache_hits(), 1);

  // Policy and config still split the key.
  eng.compile(a, Policy::kFixedInter);
  EXPECT_EQ(eng.cache_size(), 2);
  engine::Engine other(test::tiny_config(8, 8));
  EXPECT_NE(engine::structural_hash(a, Policy::kAdaptive2, config),
            engine::structural_hash(a, Policy::kAdaptive2, other.config()));
}

// Concurrent compiles through the shared cache: every caller gets a
// usable program and the cache ends with exactly one entry per key.
TEST(EngineCache, ConcurrentCompileIsThreadSafe) {
  const Network net = serving_net("concurrent");
  const AcceleratorConfig config = tiny_config();
  engine::Engine eng(config);

  constexpr i64 kThreads = 16;
  const auto programs =
      parallel::parallel_map<std::shared_ptr<const CompiledNetwork>>(
          kThreads,
          [&](i64 i) {
            return eng.compile(net, i % 2 == 0 ? Policy::kAdaptive2
                                               : Policy::kFixedIntra);
          },
          kThreads);
  std::set<const CompiledNetwork*> distinct;
  for (const auto& p : programs) {
    ASSERT_NE(p, nullptr);
    distinct.insert(p.get());
  }
  // Losers of a first-compile race may hold a discarded duplicate, but
  // cached lookups afterwards converge on the two canonical programs.
  EXPECT_EQ(eng.cache_size(), 2);
  EXPECT_EQ(eng.compile(net, Policy::kAdaptive2).get(),
            eng.compile(net, Policy::kAdaptive2).get());
}

// One malformed request among sixteen good ones, at either tier: with a
// status channel, the bad slot gets its own kInvalidArgument status,
// every good sibling completes byte-identically to a fresh simulate at
// that tier, and nothing throws. The old behavior — the first exception
// aborting the whole batch — is what this pins against. The cycle tier
// fails the slot inside its per-image loop, the functional tier in its
// up-front input validation.
TEST(EngineRunMany, OneBadRequestDoesNotPoisonTheBatch) {
  const Network net = serving_net("serve_net");
  const AcceleratorConfig config = tiny_config();
  const auto params = init_net_params<Fixed16>(net, 42);

  constexpr i64 kRequests = 17;
  constexpr std::size_t kBad = 5;
  std::vector<Tensor3<Fixed16>> inputs;
  for (i64 i = 0; i < kRequests; ++i)
    inputs.push_back(input_for(net, 500 + static_cast<u64>(i)));
  // Wrong input geometry: both tiers CHECK dims at inference time.
  inputs[kBad] = Tensor3<Fixed16>({1, 2, 2});

  engine::Engine eng(config);
  for (Fidelity fidelity : {Fidelity::kCycle, Fidelity::kFunctional}) {
    SCOPED_TRACE(fidelity_name(fidelity));
    std::vector<SimResult> expected(static_cast<std::size_t>(kRequests));
    for (std::size_t i = 0; i < static_cast<std::size_t>(kRequests); ++i) {
      if (i == kBad) continue;
      CBrain fresh(config);
      expected[i] = fresh.simulate(net, Policy::kAdaptive2, inputs[i],
                                   params, fidelity);
    }

    for (i64 jobs : {1, 4, 16}) {
      std::vector<Status> statuses;
      const auto got = eng.run_many(net, Policy::kAdaptive2, params, inputs,
                                    jobs, nullptr, fidelity, &statuses);
      ASSERT_EQ(got.size(), static_cast<std::size_t>(kRequests));
      ASSERT_EQ(statuses.size(), static_cast<std::size_t>(kRequests));
      for (std::size_t i = 0; i < static_cast<std::size_t>(kRequests); ++i) {
        if (i == kBad) {
          EXPECT_EQ(statuses[i].code(), StatusCode::kInvalidArgument);
          // Failed slot keeps a default result, not garbage.
          EXPECT_EQ(got[i].final_output.dims().count(), 0);
        } else {
          EXPECT_TRUE(statuses[i].is_ok()) << statuses[i].to_string();
          expect_results_identical(got[i], expected[i],
                                   "jobs " + std::to_string(jobs) +
                                       " request " + std::to_string(i));
        }
      }
    }

    // Without a status channel the historical contract holds: the lowest-
    // index failure rethrows — after the batch drains, so good siblings
    // still ran (observable through the request-failure counter).
    EXPECT_THROW(eng.run_many(net, Policy::kAdaptive2, params, inputs, 4,
                              nullptr, fidelity),
                 CheckError);
  }
}

// A functional pool packs the weights once: every session serves from
// one immutable pack, run_batches is byte-identical at any jobs, and a
// load_params hot-swap gives that session a fresh pack while its
// siblings keep serving the old one.
TEST(EngineSessionPool, FunctionalPoolPacksOnce) {
  const Network net = serving_net("serve_net");
  const AcceleratorConfig config = tiny_config();
  const auto params = init_net_params<Fixed16>(net, 42);
  engine::Engine eng(config);

  auto pool = eng.open_pool(net, Policy::kAdaptive2, params, 3,
                            Fidelity::kFunctional);
  ASSERT_EQ(pool->size(), 3);
  const auto* pack = pool->at(0)->packed_params();
  ASSERT_NE(pack, nullptr);
  for (i64 i = 1; i < pool->size(); ++i)
    EXPECT_EQ(pool->at(i)->packed_params(), pack) << "session " << i;
  // Cycle sessions keep their own DRAM and hold no pack.
  EXPECT_EQ(eng.open_pool(net, Policy::kAdaptive2, params, 2)
                ->at(1)
                ->packed_params(),
            nullptr);

  std::vector<Tensor3<Fixed16>> inputs;
  for (u64 i = 0; i < 6; ++i) inputs.push_back(input_for(net, 200 + i));
  const std::vector<std::vector<i64>> batches = {{0, 1}, {2, 3, 4}, {5}};
  const auto first = eng.run_batches(net, Policy::kAdaptive2, params, inputs,
                                     batches, 1, nullptr,
                                     Fidelity::kFunctional);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    CBrain fresh(config);
    EXPECT_TRUE(tensors_equal(
        first[i].final_output,
        fresh.simulate(net, Policy::kAdaptive2, inputs[i], params)
            .final_output))
        << "request " << i;
  }
  for (i64 jobs : {2, 4}) {
    const auto got = eng.run_batches(net, Policy::kAdaptive2, params, inputs,
                                     batches, jobs, nullptr,
                                     Fidelity::kFunctional);
    for (std::size_t i = 0; i < inputs.size(); ++i)
      expect_results_identical(got[i], first[i],
                               "jobs " + std::to_string(jobs) + " request " +
                                   std::to_string(i));
  }

  engine::Session* swapped = pool->at(0);
  engine::Session* sibling = pool->at(1);
  const auto input = input_for(net, 5);
  const SimResult before = sibling->infer(input);
  const auto params2 = init_net_params<Fixed16>(net, 43);
  swapped->load_params(params2);
  EXPECT_NE(swapped->packed_params(), pack);
  EXPECT_EQ(sibling->packed_params(), pack);
  expect_results_identical(sibling->infer(input), before,
                           "sibling after hot swap");
  const SimResult after = swapped->infer(input);
  CBrain fresh(config);
  EXPECT_TRUE(tensors_equal(
      after.final_output,
      fresh.simulate(net, Policy::kAdaptive2, input, params2).final_output));
  EXPECT_FALSE(tensors_equal(after.final_output, before.final_output));
}

}  // namespace
}  // namespace cbrain
