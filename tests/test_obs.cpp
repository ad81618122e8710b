// The observability subsystem (cbrain::obs) and its contracts: histogram
// bucketing and percentile behaviour, registry export formats, tracer
// buffering/drain determinism, and — the load-bearing invariant — that
// cycle-domain spans and every registry counter are byte-identical across
// --jobs counts and SIMD backends, because they are pure functions of
// (network, config, seed).
#include "cbrain/obs/metrics.hpp"

#include <cstdlib>
#include <string>
#include <vector>

#include "cbrain/common/logging.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/engine/engine.hpp"
#include "cbrain/obs/chrome_trace.hpp"
#include "cbrain/obs/tracer.hpp"
#include "cbrain/simd/simd.hpp"
#include "support.hpp"

namespace cbrain {
namespace {

using test::counters_line;
using test::tiny_config;

// ---------------------------------------------------------------------------
// Histogram

TEST(Histogram, BucketIndexIsMonotoneAndBounded) {
  int prev = -1;
  // Geometric sweep across the whole range plus both clamp regions.
  for (double v = 1e-8; v < 1e8; v *= 1.07) {
    const int idx = obs::Histogram::bucket_index(v);
    ASSERT_GE(idx, 0);
    ASSERT_LT(idx, obs::Histogram::kBuckets);
    ASSERT_GE(idx, prev) << "bucket_index not monotone at v=" << v;
    prev = idx;
    if (idx > 0 && idx < obs::Histogram::kBuckets - 1) {
      // In-range values land in the bucket whose (lo, upper] straddles v.
      EXPECT_LE(v, obs::Histogram::bucket_upper(idx) * (1.0 + 1e-12));
      EXPECT_GT(v, obs::Histogram::bucket_upper(idx - 1) * (1.0 - 1e-12));
    }
  }
  // Non-positive and NaN observations clamp into bucket 0.
  EXPECT_EQ(obs::Histogram::bucket_index(0.0), 0);
  EXPECT_EQ(obs::Histogram::bucket_index(-3.5), 0);
}

TEST(Histogram, CountSumMinMax) {
  obs::Histogram h;
  for (double v : {1.0, 2.0, 4.0, 8.0}) h.observe(v);
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 4);
  EXPECT_DOUBLE_EQ(s.sum, 15.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 8.0);
  i64 bucketed = 0;
  for (i64 b : s.buckets) bucketed += b;
  EXPECT_EQ(bucketed, s.count);
}

TEST(Histogram, PercentileExactAtExtremes) {
  obs::Histogram h;
  h.observe(5.0);
  // A one-sample distribution must round-trip exactly through the
  // [min, max] clamp regardless of bucket resolution.
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 5.0);

  obs::Histogram h2;
  for (double v : {1.0, 2.0, 4.0, 8.0}) h2.observe(v);
  EXPECT_DOUBLE_EQ(h2.percentile(1.0), 8.0);  // max is exact
  const double p50 = h2.percentile(0.5);      // nearest rank: 2nd of 4 = 2.0
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 8.0);
  // Quarter-octave buckets: the estimate is within one bucket (~19%).
  EXPECT_NEAR(p50, 2.0, 2.0 * 0.2);
}

TEST(Histogram, ResetZeroes) {
  obs::Histogram h;
  h.observe(3.0);
  h.reset();
  const auto s = h.snapshot();
  EXPECT_EQ(s.count, 0);
  EXPECT_DOUBLE_EQ(s.sum, 0.0);
}

// ---------------------------------------------------------------------------
// Registry

TEST(Registry, InstrumentsAreStableReferences) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x.total");
  a.inc(3);
  EXPECT_EQ(&a, &reg.counter("x.total"));
  EXPECT_EQ(reg.counter("x.total").value(), 3);
  reg.reset();
  EXPECT_EQ(a.value(), 0);  // reset zeroes in place, reference stays valid
}

TEST(Registry, JsonAndPrometheusExport) {
  obs::Registry reg;
  reg.counter("sim.cycles_total").inc(123);
  reg.gauge("engine.session_pool").set(4.0);
  reg.histogram("engine.infer_ms").observe(2.5);

  const std::string json = reg.to_json();
  EXPECT_NE(json.find("\"sim.cycles_total\":123"), std::string::npos) << json;
  EXPECT_NE(json.find("\"engine.session_pool\""), std::string::npos);
  EXPECT_NE(json.find("\"engine.infer_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("# TYPE cbrain_sim_cycles_total counter"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("cbrain_sim_cycles_total 123"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE cbrain_engine_infer_ms histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
  EXPECT_NE(prom.find("cbrain_engine_infer_ms_count 1"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Logging satellite

TEST(Logging, ParseLogLevel) {
  LogLevel lv;
  EXPECT_TRUE(parse_log_level("debug", &lv));
  EXPECT_EQ(lv, LogLevel::kDebug);
  EXPECT_TRUE(parse_log_level("INFO", &lv));
  EXPECT_EQ(lv, LogLevel::kInfo);
  EXPECT_TRUE(parse_log_level("Warning", &lv));
  EXPECT_EQ(lv, LogLevel::kWarn);
  EXPECT_TRUE(parse_log_level("error", &lv));
  EXPECT_EQ(lv, LogLevel::kError);
  EXPECT_TRUE(parse_log_level("off", &lv));
  EXPECT_FALSE(parse_log_level("loud", &lv));
  EXPECT_FALSE(parse_log_level("", &lv));
}

// ---------------------------------------------------------------------------
// Tracer

TEST(Tracer, DisabledTracerDropsRecords) {
  obs::Tracer& tr = obs::Tracer::global();
  tr.disable();
  (void)tr.drain();  // flush anything a prior test left behind
  obs::Span s;
  s.name = "dropped";
  tr.record(std::move(s));
  EXPECT_TRUE(tr.drain().empty());
}

TEST(Tracer, DrainSortsAndRenumbersTracksByName) {
  obs::Tracer& tr = obs::Tracer::global();
  (void)tr.drain();
  tr.enable();
  // Register out of name order; drain() must renumber to sorted order.
  const int b = tr.add_track(obs::Domain::kCycles, "track-b");
  const int a = tr.add_track(obs::Domain::kCycles, "track-a");
  obs::Span sb;
  sb.track = b;
  sb.name = "on-b";
  tr.record(std::move(sb));
  obs::Span sa;
  sa.track = a;
  sa.name = "on-a";
  tr.record(std::move(sa));
  tr.disable();

  const obs::TraceData data = tr.drain();
  ASSERT_EQ(data.tracks.size(), 2u);
  EXPECT_EQ(data.tracks[0].name, "track-a");
  EXPECT_EQ(data.tracks[0].id, 0);
  EXPECT_EQ(data.tracks[1].name, "track-b");
  EXPECT_EQ(data.tracks[1].id, 1);
  ASSERT_EQ(data.spans.size(), 2u);
  // Spans follow their tracks through the renumbering.
  EXPECT_EQ(data.spans[0].name, "on-a");
  EXPECT_EQ(data.spans[0].track, 0);
  EXPECT_EQ(data.spans[1].name, "on-b");
  EXPECT_EQ(data.spans[1].track, 1);
}

// ---------------------------------------------------------------------------
// Cycle-domain determinism: the tentpole contract.

Network obs_net(const std::string& name) {
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

// One traced compile + simulate with a fresh registry/tracer; returns
// {chrome trace JSON, registry JSON}.
std::pair<std::string, std::string> traced_run() {
  obs::Tracer& tr = obs::Tracer::global();
  (void)tr.drain();
  obs::Registry::global().reset();

  const Network net = obs_net("obsnet");
  const AcceleratorConfig config = tiny_config();
  const auto params = init_net_params<Fixed16>(net, 7);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 11);

  tr.enable();
  auto compiled = compile_network(net, Policy::kAdaptive2, config);
  EXPECT_TRUE(compiled.is_ok());
  SimExecutor sim(net, compiled.value(), config);
  (void)sim.run(input, params);
  tr.disable();

  // Host wall time per layer kind is the one registry entry a run does
  // not determine; zero it so the dump holds the cycle-domain counters.
  for (const Layer& l : net.layers())
    obs::Registry::global()
        .counter(std::string("sim.wall_us.") + layer_kind_name(l.kind))
        .reset();
  return {obs::to_chrome_trace_json(tr.drain()),
          obs::Registry::global().to_json()};
}

TEST(ObsDeterminism, CycleSpansAndCountersIdenticalAcrossJobsAndSimd) {
  const i64 jobs_before = parallel::default_jobs();
  const std::string reference_trace = traced_run().first;
  const std::string reference_metrics = traced_run().second;
  ASSERT_NE(reference_trace.find("\"traceEvents\""), std::string::npos);
  ASSERT_NE(reference_metrics.find("sim.cycles_total"), std::string::npos);

  for (const i64 jobs : {i64{1}, i64{4}, i64{16}}) {
    for (const char* backend : {"scalar", "auto"}) {
      SCOPED_TRACE(std::string("jobs=") + std::to_string(jobs) +
                   " simd=" + backend);
      parallel::set_default_jobs(jobs);
      ASSERT_TRUE(simd::select_backend(backend));
      const auto [trace, metrics] = traced_run();
      EXPECT_EQ(trace, reference_trace);
      EXPECT_EQ(metrics, reference_metrics);
    }
  }
  parallel::set_default_jobs(jobs_before);
  ASSERT_TRUE(simd::select_backend("auto"));
}

// The cycle tier's conv rows fan out for a lone inference, each with its
// epilogue when no injector is attached; with one, the epilogue and
// every fault hook stay serial, and FC lane-group dots fan out either
// way. scheme_mix under the five compiling policies runs every scheme's
// value pass and both conv epilogues (straight from the PE and through
// the partials buffer); at pool widths 1, 2 and 4, with and without a
// weight+PE injector (parity replays re-run the pass), the output,
// per-layer counters, cycle trace and fault event log must not depend on
// the width.
TEST(ObsDeterminism, CycleValuePassIdenticalAcrossWorkerCounts) {
  const i64 jobs_before = parallel::default_jobs();
  const Network net = zoo::scheme_mix_cnn();
  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  const auto params = init_net_params<Fixed16>(net, 42);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 43);
  obs::Tracer& tr = obs::Tracer::global();

  // Everything one run shows, as text: output raws, per-layer counters,
  // the Chrome trace and the fault stats and event log.
  const auto run = [&](const CompiledNetwork& compiled, bool faulty) {
    FaultConfig fc;
    fc.seed = 5;
    fc.recovery = RecoveryPolicy::kParityRetry;
    fc.rate(FaultSite::kWeightSram) = 2000;
    fc.rate(FaultSite::kPeLane) = 2000;
    FaultInjector injector(fc);
    SimExecutor sim(net, compiled, config);
    if (faulty) sim.attach_fault(&injector);
    (void)tr.drain();
    tr.enable();
    const SimResult r = sim.run(input, params);
    tr.disable();
    std::vector<std::string> seen(4);
    for (const Fixed16 v : r.final_output.storage())
      seen[0] += std::to_string(v.raw()) + " ";
    for (const TrafficCounters& c : r.per_layer)
      seen[1] += counters_line(c) + "\n";
    seen[2] = obs::to_chrome_trace_json(tr.drain());
    seen[3] = std::to_string(injector.stats().total_injected()) + " " +
              std::to_string(injector.stats().instruction_replays) + "\n" +
              injector.event_log();
    return seen;
  };

  for (const Policy policy :
       {Policy::kFixedInter, Policy::kFixedIntra, Policy::kFixedPartition,
        Policy::kAdaptive1, Policy::kAdaptive2}) {
    const auto compiled = compile_network(net, policy, config);
    ASSERT_TRUE(compiled.is_ok());
    for (const bool faulty : {false, true}) {
      parallel::set_default_jobs(1);
      const std::vector<std::string> reference = run(compiled.value(), faulty);
      if (faulty) {
        EXPECT_FALSE(reference[3].starts_with("0 ")) << "no fault injected";
      }
      for (const i64 jobs : {i64{2}, i64{4}}) {
        SCOPED_TRACE(std::string(policy_name(policy)) + " jobs=" +
                     std::to_string(jobs) + (faulty ? " faulty" : ""));
        parallel::set_default_jobs(jobs);
        const std::vector<std::string> seen = run(compiled.value(), faulty);
        EXPECT_EQ(seen[0], reference[0]) << "final_output";
        EXPECT_EQ(seen[1], reference[1]) << "per-layer counters";
        EXPECT_EQ(seen[2], reference[2]) << "cycle trace";
        EXPECT_EQ(seen[3], reference[3]) << "fault stats and event log";
      }
    }
  }
  parallel::set_default_jobs(jobs_before);
}

// The cycle tier's host time per layer kind (sim.wall_us.<kind>, one
// clock read per layer) advances for every kind an AlexNet inference
// runs, while the cycle-domain trace stays byte-identical from one
// inference to the next.
TEST(ObsSimWall, AlexNetInferAdvancesPerKindWallCounters) {
  obs::Tracer& tr = obs::Tracer::global();
  (void)tr.drain();
  const Network net = zoo::alexnet();
  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  const auto params = init_net_params<Fixed16>(net, 7);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 11);
  auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  SimExecutor sim(net, compiled.value(), config);
  sim.load_params(params);

  obs::Registry& reg = obs::Registry::global();
  const std::vector<std::string> kinds = {"conv", "fc", "pool", "lrn",
                                          "softmax"};
  std::vector<std::string> traces;
  for (int run = 0; run < 2; ++run) {
    std::vector<i64> before;
    for (const std::string& k : kinds)
      before.push_back(reg.counter("sim.wall_us." + k).value());
    tr.enable();
    (void)sim.infer(input);
    tr.disable();
    traces.push_back(obs::to_chrome_trace_json(tr.drain()));
    for (std::size_t i = 0; i < kinds.size(); ++i)
      EXPECT_GT(reg.counter("sim.wall_us." + kinds[i]).value(), before[i])
          << kinds[i] << " run " << run;
  }
  ASSERT_NE(traces[0].find("\"infer:alexnet\""), std::string::npos);
  EXPECT_EQ(traces[0], traces[1]);
}

TEST(ObsDeterminism, SimSpansNestInsideTheInferSpan) {
  obs::Tracer& tr = obs::Tracer::global();
  (void)tr.drain();
  const Network net = obs_net("nest");
  const AcceleratorConfig config = tiny_config();
  const auto params = init_net_params<Fixed16>(net, 7);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 11);

  tr.enable();
  auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  SimExecutor sim(net, compiled.value(), config);
  (void)sim.run(input, params);
  tr.disable();
  const obs::TraceData data = tr.drain();

  // Find the "sim:<net>" track and its depth-0 whole-inference span.
  int sim_track = -1;
  for (const auto& t : data.tracks)
    if (t.name == "sim:nest") sim_track = t.id;
  ASSERT_GE(sim_track, 0);
  const obs::Span* infer = nullptr;
  i64 n_layers = 0;
  for (const auto& s : data.spans) {
    if (s.track != sim_track) continue;
    if (s.depth == 0) infer = &s;
    if (s.cat == "layer" || s.cat == "conv" || s.cat == "pool" ||
        s.cat == "fc")
      if (s.depth == 1) ++n_layers;
  }
  ASSERT_NE(infer, nullptr);
  EXPECT_GT(infer->dur, 0);
  EXPECT_GT(n_layers, 0);
  for (const auto& s : data.spans) {
    if (s.domain != obs::Domain::kCycles) continue;
    SCOPED_TRACE(s.name);
    EXPECT_GE(s.start, 0);
    if (s.track == sim_track) {
      EXPECT_GE(s.start, infer->start);
      EXPECT_LE(s.start + s.dur, infer->start + infer->dur);
    }
  }
  // The compile track recorded scheme-selection candidate spans.
  bool saw_candidate = false;
  for (const auto& s : data.spans)
    if (s.cat == "candidate") saw_candidate = true;
  EXPECT_TRUE(saw_candidate);
}

// ---------------------------------------------------------------------------
// Engine metrics and wall spans

// run_many and run_batches share one serving loop, so both report one
// schema: one run counter bump per call, per-batch histograms, and one
// wall span per served batch on its session's track.
TEST(EngineObs, RunManyPopulatesRegistryAndWallSpans) {
  obs::Tracer& tr = obs::Tracer::global();
  (void)tr.drain();
  obs::Registry::global().reset();

  const Network net = obs_net("serve");
  engine::Engine eng(tiny_config());
  const auto params = init_net_params<Fixed16>(net, 7);
  std::vector<Tensor3<Fixed16>> inputs;
  for (u64 i = 0; i < 6; ++i)
    inputs.push_back(random_input<Fixed16>(net.layer(0).out_dims, 100 + i));

  // Wall-domain batch spans: `want` of them, on per-session tracks,
  // non-overlapping within a track (a session serves one batch at a
  // time), their batch_size args summing to the request count.
  const auto expect_batch_spans = [&](std::size_t want) {
    const obs::TraceData data = tr.drain();
    std::vector<const obs::Span*> batches;
    for (const auto& s : data.spans)
      if (s.domain == obs::Domain::kWall && s.cat == "batch")
        batches.push_back(&s);
    ASSERT_EQ(batches.size(), want);
    i64 served = 0;
    for (const auto* s : batches)
      for (const auto& [key, value] : s->args)
        if (key == "batch_size") served += std::stoll(value);
    EXPECT_EQ(served, static_cast<i64>(inputs.size()));
    for (std::size_t i = 0; i < batches.size(); ++i)
      for (std::size_t j = i + 1; j < batches.size(); ++j) {
        const auto* a = batches[i];
        const auto* b = batches[j];
        if (a->track != b->track) continue;
        const bool disjoint = a->start + a->dur <= b->start ||
                              b->start + b->dur <= a->start;
        EXPECT_TRUE(disjoint) << "overlapping batch spans on one session";
      }
  };

  tr.enable();
  engine::ServeStats stats;
  auto results =
      eng.run_many(net, Policy::kAdaptive2, params, inputs, 3, &stats);
  tr.disable();
  ASSERT_EQ(results.size(), inputs.size());

  obs::Registry& reg = obs::Registry::global();
  EXPECT_EQ(reg.counter("engine.run_batches_total").value(), 1);
  EXPECT_EQ(reg.counter("engine.requests_total").value(), 6);
  EXPECT_GE(reg.counter("engine.compile_cache_misses").value(), 1);
  for (const char* per_batch :
       {"engine.queue_wait_ms", "engine.session_acquire_ms",
        "engine.batch_size", "engine.infer_ms"})
    EXPECT_EQ(reg.histogram(per_batch).count(), 6) << per_batch;
  EXPECT_EQ(reg.histogram("engine.request_latency_ms").count(), 6);
  EXPECT_EQ(reg.counter("sim.infers_total").value(), 6);

  // ServeStats percentiles come from the obs histogram now; they must
  // stay inside the observed latency range.
  double lo = stats.latency_ms[0], hi = stats.latency_ms[0];
  for (double v : stats.latency_ms) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double p50 = stats.latency_percentile_ms(0.5);
  EXPECT_GE(p50, lo);
  EXPECT_LE(p50, hi);
  expect_batch_spans(inputs.size());

  // A ragged partition through run_batches: three batches of 3, 1 and 2
  // requests, three spans, per-batch histograms advance by three and the
  // per-request ones by six.
  tr.enable();
  results = eng.run_batches(net, Policy::kAdaptive2, params, inputs,
                            {{0, 1, 2}, {3}, {4, 5}}, 2, &stats);
  tr.disable();
  ASSERT_EQ(results.size(), inputs.size());
  EXPECT_EQ(reg.counter("engine.run_batches_total").value(), 2);
  EXPECT_EQ(reg.counter("engine.requests_total").value(), 12);
  for (const char* per_batch :
       {"engine.queue_wait_ms", "engine.session_acquire_ms",
        "engine.batch_size", "engine.infer_ms"})
    EXPECT_EQ(reg.histogram(per_batch).count(), 9) << per_batch;
  EXPECT_EQ(reg.histogram("engine.batch_size").snapshot().sum, 12.0);
  EXPECT_EQ(reg.histogram("engine.request_latency_ms").count(), 12);
  EXPECT_EQ(reg.counter("sim.infers_total").value(), 12);
  expect_batch_spans(3);
}

TEST(EngineObs, SimCountersIdenticalAcrossRunManyJobs) {
  const Network net = obs_net("servejobs");
  const auto params = init_net_params<Fixed16>(net, 7);
  std::vector<Tensor3<Fixed16>> inputs;
  for (u64 i = 0; i < 6; ++i)
    inputs.push_back(random_input<Fixed16>(net.layer(0).out_dims, 200 + i));

  auto run = [&](i64 jobs) {
    obs::Registry::global().reset();
    engine::Engine eng(tiny_config());
    (void)eng.run_many(net, Policy::kAdaptive2, params, inputs, jobs);
    obs::Registry& reg = obs::Registry::global();
    // Deterministic (cycle-domain) counters only — wall histograms vary.
    std::vector<i64> vals;
    for (const char* name :
         {"sim.infers_total", "sim.cycles_total", "sim.dram_reads_total",
          "sim.dram_writes_total", "sim.mul_ops_total"})
      vals.push_back(reg.counter(name).value());
    return vals;
  };
  const auto serial = run(1);
  EXPECT_EQ(run(4), serial);
  EXPECT_EQ(run(16), serial);
  EXPECT_GT(serial[1], 0);  // cycles actually accumulated
}

}  // namespace
}  // namespace cbrain
