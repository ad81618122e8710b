// Microbenchmarks (google-benchmark): throughput of the building blocks —
// the blocked GEMM behind the Table-4 CPU baseline, the fixed-point
// primitives, the im2col transform, the cbrain::simd kernel layer (per
// backend), and the cycle-level simulator itself (simulated MACs per
// host-second), so regressions in the infrastructure are visible
// independently of the paper tables.
//
// Besides the default google-benchmark mode, the binary doubles as the
// perf-regression harness behind tools/bench_compare.py:
//
//   bench_micro_kernels --perf-json[=path] [--quick]
//
// times dot_s16_mrhs[_dw], the functional tier's depthwise layer at two
// MobileNetV1 shapes, its tile conv at three zoo shapes and its host-side
// ops (LRN, max pool, residual add) at four on every supported SIMD
// backend, the backends taking turns point by point, plus
// whole-network wall-clock at both execution tiers
// (cycle: full simulate per backend for AlexNet, VGG16 under the best
// one; functional: warm weight-resident forward pass, with its speedup
// over the cycle tier) and the serving path (AlexNet through
// weight-resident engine sessions at jobs 1 and N, at both fidelities,
// vs the per-call simulate path), and writes the results as JSON
// (default: BENCH_kernels.json in the working directory). --quick drops
// VGG16 and shortens reps. Each tile conv and serve point runs
// kSpreadRuns times and reports its median with the min and max, so a
// single slow run on a shared host does not read as a regression. CI runs
// the quick mode and diffs against the committed baseline; the diff is
// informational, not a gate. A cycle whole-net point's infer_ms is the
// median of kSpreadRuns warm inferences on its session, after one cold
// one, with the min and max.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "cbrain/common/json.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/compiler/compiler.hpp"
#include "cbrain/core/cbrain.hpp"
#include "cbrain/engine/engine.hpp"
#include "cbrain/func/kernels.hpp"
#include "cbrain/model/network_model.hpp"
#include "cbrain/nn/workload.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/ref/im2col_gemm.hpp"
#include "cbrain/ref/params.hpp"
#include "cbrain/ref/pool_ref.hpp"
#include "cbrain/sim/executor.hpp"
#include "cbrain/simd/simd.hpp"
#include "cbrain/tensor/unroll.hpp"

namespace {

using namespace cbrain;

void BM_Sgemm(benchmark::State& state) {
  const i64 n = state.range(0);
  std::vector<float> a(static_cast<std::size_t>(n * n), 1.0f);
  std::vector<float> b(static_cast<std::size_t>(n * n), 2.0f);
  std::vector<float> c(static_cast<std::size_t>(n * n));
  for (auto _ : state) {
    sgemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.counters["GFLOP/s"] = benchmark::Counter(
      static_cast<double>(2 * n * n * n) * state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Sgemm)->Arg(64)->Arg(128)->Arg(256);

void BM_Fixed16Mac(benchmark::State& state) {
  Rng rng(1);
  std::vector<Fixed16> xs(4096), ws(4096);
  for (auto& v : xs) v = Fixed16::from_double(rng.next_double(-1, 1));
  for (auto& v : ws) v = Fixed16::from_double(rng.next_double(-1, 1));
  for (auto _ : state) {
    Fixed16::acc_t acc = 0;
    for (std::size_t i = 0; i < xs.size(); ++i)
      acc += xs[i].mul_to_acc(ws[i]);
    benchmark::DoNotOptimize(acc);
  }
  state.counters["MAC/s"] = benchmark::Counter(
      static_cast<double>(xs.size()) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_Fixed16Mac);

void BM_Im2col(benchmark::State& state) {
  const Tensor3<float> in = random_input<float>({16, 56, 56}, 3);
  const ConvParams p{.dout = 1, .k = 3, .stride = 1, .pad = 1};
  std::vector<float> col;
  for (auto _ : state) {
    im2col(in, 0, 16, p, col);
    benchmark::DoNotOptimize(col.data());
  }
}
BENCHMARK(BM_Im2col);

void BM_CycleSimulator(benchmark::State& state) {
  const Network net = zoo::tiny_cnn();
  const AcceleratorConfig config = AcceleratorConfig::with_pe(8, 8);
  const auto compiled = compile_network(net, Policy::kAdaptive2, config);
  const auto params = init_net_params<Fixed16>(net, 5);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 6);
  i64 macs = 0;
  for (const Layer& l : net.layers()) macs += l.macs();
  for (auto _ : state) {
    SimExecutor sim(net, compiled.value(), config);
    benchmark::DoNotOptimize(sim.run(input, params).final_output);
  }
  state.counters["simulated MAC/s"] = benchmark::Counter(
      static_cast<double>(macs) * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CycleSimulator);

void BM_AnalyticalModel(benchmark::State& state) {
  const Network net = zoo::googlenet();
  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        model_network(net, Policy::kAdaptive2, config).cycles());
  }
}
BENCHMARK(BM_AnalyticalModel);

// --- cbrain::simd kernel layer, per backend --------------------------------
//
// Registered at runtime (main) so only backends this build/CPU supports
// appear: BM_DotS16Mrhs/<backend>/n, one exact dot per call (the
// single-column, single-row shape of an FC lane group).

std::vector<std::int16_t> random_s16(i64 n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::int16_t> v(static_cast<std::size_t>(n));
  for (auto& x : v) x = static_cast<std::int16_t>(rng.next_u64());
  return v;
}

void run_dot_bench(benchmark::State& state, simd::Backend b, i64 n) {
  simd::select_backend(b);
  const auto data = random_s16(n, 11);
  const auto weights = random_s16(n, 12);
  for (auto _ : state) {
    Fixed16::acc_t acc = 0;
    simd::dot_s16_mrhs(data.data(), n, 1, weights.data(), n, 1, n, &acc, 1);
    benchmark::DoNotOptimize(acc);
  }
  state.counters["GB/s"] = benchmark::Counter(
      static_cast<double>(2 * sizeof(std::int16_t) * n) *
          state.iterations() * 1e-9,
      benchmark::Counter::kIsRate);
  state.counters["MAC/s"] = benchmark::Counter(
      static_cast<double>(n) * state.iterations(),
      benchmark::Counter::kIsRate);
}

void register_simd_benches() {
  for (simd::Backend b : simd::supported_backends()) {
    const std::string name = simd::backend_name(b);
    for (i64 n : {64, 256, 1024}) {
      benchmark::RegisterBenchmark(
          ("BM_DotS16Mrhs/" + name + "/" + std::to_string(n)).c_str(),
          [b, n](benchmark::State& s) { run_dot_bench(s, b, n); });
    }
  }
}

// --- perf-regression harness (--perf-json) ---------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Best-of-`reps` wall time of `fn()` with `iters` inner calls per rep.
template <typename Fn>
double best_of(int reps, i64 iters, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const Clock::time_point t0 = Clock::now();
    for (i64 i = 0; i < iters; ++i) fn();
    const double dt = seconds_since(t0) / static_cast<double>(iters);
    if (dt < best) best = dt;
  }
  return best;
}

// Runs of each tile conv and serve point (odd, so the median is one
// run); the median is the point's value, min and max its spread.
constexpr int kSpreadRuns = 5;

struct Spread {
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

Spread spread_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return {v[v.size() / 2], v.front(), v.back()};
}

struct KernelResult {
  std::string name;
  std::string backend;
  i64 n = 0;
  double gbps = 0.0;  // the median run's, for a point with runs > 0
  double mac_per_s = 0.0;
  double secs = 0.0;
  int runs = 0;  // 0: best of reps, no spread
  double gbps_min = 0.0;
  double gbps_max = 0.0;
};

// The multi-RHS GEMM kernels behind both tiers (the exact one runs
// cycle-tier FC and out-of-contract tiles): one kMrhsRows-row weight
// panel against kMrhsCols data columns per call. Both tiers share the
// measurement shape; `dw` picks the deep-window entry point and shrinks
// the weights to honour its magnitude bound (checked with
// simd::deep_window_ok rather than assumed).
constexpr i64 kMrhsRows = 16;
constexpr i64 kMrhsCols = 8;

KernelResult measure_dot_mrhs(simd::Backend b, bool dw, i64 n, int reps,
                              i64 iters) {
  simd::select_backend(b);
  const auto data = random_s16(n * kMrhsCols, 27);
  auto weights = random_s16(n * kMrhsRows, 28);
  if (dw) {
    // Trained-net magnitudes: small enough that every 16-group window
    // stays under the 32-bit lane bound.
    for (auto& w : weights) w = static_cast<std::int16_t>(w % 1024);
    CBRAIN_CHECK(simd::deep_window_ok(weights.data(), n, kMrhsRows, n),
                 "dw bench weights must satisfy the deep-window bound");
  }
  std::vector<Fixed16::acc_t> out(
      static_cast<std::size_t>(kMrhsRows * kMrhsCols));
  auto fn = dw ? simd::dot_s16_mrhs_dw : simd::dot_s16_mrhs;
  const double secs = best_of(reps, iters, [&] {
    fn(data.data(), n, kMrhsCols, weights.data(), n, kMrhsRows, n,
       out.data(), kMrhsCols);
    benchmark::DoNotOptimize(out.data());
  });
  KernelResult r;
  r.name = dw ? "dot_s16_mrhs_dw" : "dot_s16_mrhs";
  r.backend = simd::backend_name(b);
  r.n = n;
  r.secs = secs;
  // Bytes streamed: kMrhsCols data columns + kMrhsRows weight rows.
  r.gbps = static_cast<double>(sizeof(std::int16_t) * n *
                               (kMrhsCols + kMrhsRows)) /
           secs * 1e-9;
  r.mac_per_s = static_cast<double>(n * kMrhsRows * kMrhsCols) / secs;
  return r;
}

// The functional tier's depthwise layer path (zero-padded plane staging
// plus simd::dw_conv_s16) at a MobileNetV1 shape: one image of `ch`
// planes of side `side`, 3x3, pad 1, under a filter set that satisfies
// the depthwise contract. Streamed bytes: the input and output planes.
KernelResult measure_depthwise(simd::Backend b, i64 side, i64 ch, i64 stride,
                               int reps, i64 iters) {
  simd::select_backend(b);
  const ConvParams p{.dout = ch, .k = 3, .stride = stride, .pad = 1,
                     .groups = ch};
  const Tensor3<Fixed16> input = random_input<Fixed16>({ch, side, side}, 31);
  const auto w = random_s16(ch * 9, 32);
  func::PackedRows rows(static_cast<std::size_t>(ch * 9));
  for (std::size_t i = 0; i < rows.size(); ++i)
    rows[i] = static_cast<std::int16_t>(w[i] % 512);
  const func::WeightMode mode = func::classify_weights(
      rows.data(), ch, 9, func::WeightMode::kDepthwise);
  CBRAIN_CHECK(mode == func::WeightMode::kDepthwise,
               "depthwise bench weights must satisfy the filter-sum contract");
  const std::vector<Fixed16::acc_t> bias(static_cast<std::size_t>(ch), 0);
  const i64 out_side = conv_out_extent(side, 3, stride, 1);
  Tensor3<Fixed16> output({ch, out_side, out_side});
  func::KernelScratch scratch;
  const std::vector<const Tensor3<Fixed16>*> ins = {&input};
  const std::vector<Tensor3<Fixed16>*> outs = {&output};
  const double secs = best_of(reps, iters, [&] {
    func::conv2d_func_batch(ins, rows, bias, p, mode, scratch, outs);
    benchmark::DoNotOptimize(output.raw_data());
  });
  KernelResult r;
  r.name = "depthwise_s" + std::to_string(stride) + "_c" + std::to_string(ch);
  r.backend = simd::backend_name(b);
  r.n = side;
  r.secs = secs;
  r.gbps = static_cast<double>(sizeof(std::int16_t) * ch *
                               (side * side + out_side * out_side)) /
           secs * 1e-9;
  r.mac_per_s = static_cast<double>(ch * out_side * out_side * 9) / secs;
  return r;
}

// The functional tier's tile conv path (staging plus simd::conv_tile_s16)
// at a zoo shape: one image of `din` channels of side `side`, `dout` k×k
// filters at `stride` (pad (k - 1) / 2), under weights that satisfy the
// filter-sum contract. Streamed bytes: the input and output cubes.
KernelResult measure_conv_tile(simd::Backend b, i64 side, i64 din, i64 dout,
                               i64 k, i64 stride, i64 iters) {
  simd::select_backend(b);
  const ConvParams p{.dout = dout, .k = k, .stride = stride,
                     .pad = (k - 1) / 2};
  Network net("conv_tile");
  const LayerId id = net.add_conv(net.add_input({din, side, side}), "conv", p);
  const Layer& l = net.layer(id);
  Tensor4<Fixed16> w(l.weight_dims());
  const auto raw = random_s16(w.size(), 33);
  for (std::size_t i = 0; i < raw.size(); ++i)
    w.storage()[i] = Fixed16::from_raw(static_cast<std::int16_t>(raw[i] % 32));
  const func::PackPlan plan = func::pack_plan(l);
  func::PackedRows pack(static_cast<std::size_t>(plan.units * plan.unit_elems));
  const func::WeightMode mode =
      func::pack_units(l, plan, w.raw_data(), 0, plan.units, pack.data());
  CBRAIN_CHECK(mode == func::WeightMode::kTile,
               "conv_tile bench weights must satisfy the filter-sum contract");
  const std::vector<Fixed16::acc_t> bias(static_cast<std::size_t>(dout), 0);
  const Tensor3<Fixed16> input = random_input<Fixed16>(l.in_dims, 34);
  Tensor3<Fixed16> output(l.out_dims);
  func::KernelScratch scratch;
  const std::vector<const Tensor3<Fixed16>*> ins = {&input};
  const std::vector<Tensor3<Fixed16>*> outs = {&output};
  std::vector<double> run_secs;
  for (int run = 0; run < kSpreadRuns; ++run)
    run_secs.push_back(best_of(1, iters, [&] {
      func::conv2d_func_batch(ins, pack, bias, p, mode, scratch, outs);
      benchmark::DoNotOptimize(output.raw_data());
    }));
  const Spread secs = spread_of(run_secs);
  const double bytes = static_cast<double>(
      sizeof(std::int16_t) * (l.in_dims.count() + l.out_dims.count()));
  KernelResult r;
  r.name = "conv_tile_k" + std::to_string(k) + "_s" + std::to_string(stride) +
           "_c" + std::to_string(din);
  r.backend = simd::backend_name(b);
  r.n = side;
  r.secs = secs.median;
  r.gbps = bytes / secs.median * 1e-9;
  r.mac_per_s =
      static_cast<double>(l.out_dims.count() * din * k * k) / secs.median;
  r.runs = kSpreadRuns;
  r.gbps_min = bytes / secs.max * 1e-9;
  r.gbps_max = bytes / secs.min * 1e-9;
  return r;
}

struct WholeNetResult {
  std::string net;
  std::string backend;
  std::string tier = "cycle";
  double wall_ms = 0.0;
  double setup_ms = 0.0;  // cycle tier: wall_ms = setup_ms + infer_ms
  double infer_ms = 0.0;  // cycle tier: median warm inference
  double infer_ms_min = 0.0;
  double infer_ms_max = 0.0;
  double sim_mac_per_s = 0.0;
  double cycle_wall_ms = 0.0;      // functional tier: the cycle wall it beats
  double speedup_vs_cycle = 0.0;   // functional tier only
};

// Cycle-tier whole-net wall: setup — param synthesis, compile, session
// open, DRAM weight load — and then one inference on the session. The
// first inference is cold (it faults in the simulated memories), so it
// is run untimed, and infer_ms is the median of kSpreadRuns warm ones.
// wall_ms stays setup + infer: the single-shot cost, with a warm infer.
WholeNetResult measure_whole_net(const Network& net, simd::Backend b) {
  simd::select_backend(b);
  engine::Engine eng(AcceleratorConfig::paper_16_16());
  const NetworkWorkload w = analyze_workload(net);
  const Clock::time_point t0 = Clock::now();
  const auto params = init_net_params<Fixed16>(net, 42);
  const auto input =
      random_input<Fixed16>(net.layer(0).out_dims, 42 ^ 0x1234);
  auto session = eng.open_session(net, Policy::kAdaptive2, params);
  const double setup_secs = seconds_since(t0);
  benchmark::DoNotOptimize(session->infer(input).final_output.size());
  std::vector<double> infer_secs;
  for (int run = 0; run < kSpreadRuns; ++run) {
    const Clock::time_point t1 = Clock::now();
    benchmark::DoNotOptimize(session->infer(input).final_output.size());
    infer_secs.push_back(seconds_since(t1));
  }
  const Spread infer = spread_of(infer_secs);
  WholeNetResult r;
  r.net = net.name();
  r.backend = simd::backend_name(b);
  r.setup_ms = setup_secs * 1e3;
  r.infer_ms = infer.median * 1e3;
  r.infer_ms_min = infer.min * 1e3;
  r.infer_ms_max = infer.max * 1e3;
  r.wall_ms = r.setup_ms + r.infer_ms;
  r.sim_mac_per_s = static_cast<double>(w.total_macs) /
                    (setup_secs + infer.median);
  return r;
}

// Functional-tier whole-net wall: one warm forward pass through a
// weight-resident session. The speedup basis is deliberate: the cycle
// number above is the per-inference cost of the status-quo single-shot
// path (machine build + param materialization + simulate — what each
// request paid before the tier split), and the functional number is what
// a request pays on the new tier once weights are resident. The
// warm-vs-warm ratio (both tiers session-resident) is the serve-tier
// comparison below — both bases are recorded side by side.
WholeNetResult measure_whole_net_functional(const Network& net,
                                            simd::Backend b,
                                            double cycle_wall_ms) {
  simd::select_backend(b);
  const NetworkWorkload w = analyze_workload(net);
  engine::Engine eng(AcceleratorConfig::paper_16_16());
  const auto params = init_net_params<Fixed16>(net, 42);
  auto session = eng.open_session(net, Policy::kAdaptive2, params,
                                  Fidelity::kFunctional);
  const auto input =
      random_input<Fixed16>(net.layer(0).out_dims, 42 ^ 0x1234);
  benchmark::DoNotOptimize(session->infer(input).final_output.size());  // warm
  const double secs = best_of(2, 1, [&] {
    benchmark::DoNotOptimize(session->infer(input).final_output.size());
  });
  WholeNetResult r;
  r.net = net.name();
  r.backend = simd::backend_name(b);
  r.tier = "functional";
  r.wall_ms = secs * 1e3;
  r.sim_mac_per_s = static_cast<double>(w.total_macs) / secs;
  r.cycle_wall_ms = cycle_wall_ms;
  r.speedup_vs_cycle = r.wall_ms > 0.0 ? cycle_wall_ms / r.wall_ms : 0.0;
  return r;
}

// Serving throughput: requests through a weight-resident session pool
// (engine::run_many) versus the per-call path that rebuilds the machine
// and re-materializes the weights on every request (CBrain::simulate).
// The jobs=1 speedup is the acceptance number of the session refactor:
// it isolates exactly the setup work a resident session amortizes away.
struct ServeResult {
  std::string net;
  std::string backend;
  std::string tier = "cycle";
  i64 jobs = 0;
  i64 requests = 0;
  double infer_per_s = 0.0;  // median of kSpreadRuns runs
  double infer_per_s_min = 0.0;
  double infer_per_s_max = 0.0;
  double per_call_infer_per_s = 0.0;  // 0 when not measured (jobs > 1)
  double speedup_vs_per_call = 0.0;
  double speedup_vs_cycle = 0.0;  // functional tier: warm-vs-warm, same jobs
  i64 b = 1;  // execution batch size (infer_batch multi-image calls)
  double speedup_vs_base = 0.0;  // ladder point vs its b=1 base
};

std::vector<Tensor3<Fixed16>> serve_inputs(const Network& net, i64 n) {
  std::vector<Tensor3<Fixed16>> v;
  v.reserve(static_cast<std::size_t>(n));
  for (i64 i = 0; i < n; ++i)
    v.push_back(random_input<Fixed16>(
        net.layer(0).out_dims,
        (42 ^ 0x1234) + 0x9E3779B97F4A7C15ull * static_cast<u64>(i)));
  return v;
}

void set_spread(ServeResult& r, const std::vector<double>& infer_per_s) {
  const Spread s = spread_of(infer_per_s);
  r.infer_per_s = s.median;
  r.infer_per_s_min = s.min;
  r.infer_per_s_max = s.max;
}

ServeResult measure_serve(const Network& net, simd::Backend b, i64 jobs,
                          i64 requests, bool with_per_call,
                          Fidelity fidelity = Fidelity::kCycle) {
  simd::select_backend(b);
  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  const auto params = init_net_params<Fixed16>(net, 42);
  const auto inputs = serve_inputs(net, requests);

  engine::Engine eng(config);
  eng.compile(net, Policy::kAdaptive2, fidelity);  // warm: serving, not compile
  std::vector<double> runs;
  for (int run = 0; run < kSpreadRuns; ++run) {
    engine::ServeStats stats;
    const auto results = eng.run_many(net, Policy::kAdaptive2, params, inputs,
                                      jobs, &stats, fidelity);
    benchmark::DoNotOptimize(results.size());
    runs.push_back(stats.infer_per_s());
  }

  ServeResult r;
  r.net = net.name();
  r.backend = simd::backend_name(b);
  r.tier = fidelity_name(fidelity);
  r.jobs = jobs;
  r.requests = requests;
  set_spread(r, runs);
  if (with_per_call) {
    CBrain brain(config);
    brain.compile(net, Policy::kAdaptive2);
    const Clock::time_point t0 = Clock::now();
    for (const auto& input : inputs)
      benchmark::DoNotOptimize(
          brain.simulate(net, Policy::kAdaptive2, input, params)
              .final_output.size());
    const double secs = seconds_since(t0);
    r.per_call_infer_per_s =
        secs > 0.0 ? static_cast<double>(requests) / secs : 0.0;
    r.speedup_vs_per_call = r.per_call_infer_per_s > 0.0
                                ? r.infer_per_s / r.per_call_infer_per_s
                                : 0.0;
  }
  return r;
}

// Batched serving throughput: the same warm weight-resident session, but
// requests chunked into fixed-size groups executed as one multi-image
// infer_batch each (engine::run_batches). jobs=1 and a pool width of one
// (run_perf_harness pins it) throughout — the point is the per-call
// amortization (weight blocks stream once per layer per batch), not pool
// parallelism; outputs are byte-identical at any batch size.
ServeResult measure_serve_batched(const Network& net, simd::Backend b,
                                  i64 batch, i64 requests) {
  simd::select_backend(b);
  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  const auto params = init_net_params<Fixed16>(net, 42);
  const auto inputs = serve_inputs(net, requests);
  std::vector<std::vector<i64>> batches;
  for (i64 i = 0; i < requests; i += batch) {
    batches.emplace_back();
    for (i64 j = i; j < std::min(requests, i + batch); ++j)
      batches.back().push_back(j);
  }

  engine::Engine eng(config);
  eng.compile(net, Policy::kAdaptive2, Fidelity::kFunctional);
  // Warm pass: the first batch through a fresh session grows its scratch
  // arena and output slots; steady-state serving never reallocates.
  engine::ServeStats warm;
  benchmark::DoNotOptimize(
      eng.run_batches(net, Policy::kAdaptive2, params, inputs, batches, 1,
                      &warm, Fidelity::kFunctional)
          .size());
  std::vector<double> runs;
  for (int run = 0; run < kSpreadRuns; ++run) {
    engine::ServeStats stats;
    const auto results =
        eng.run_batches(net, Policy::kAdaptive2, params, inputs, batches, 1,
                        &stats, Fidelity::kFunctional);
    benchmark::DoNotOptimize(results.size());
    runs.push_back(stats.infer_per_s());
  }

  ServeResult r;
  r.net = net.name();
  r.backend = simd::backend_name(b);
  r.tier = "functional";
  r.jobs = 1;
  r.requests = requests;
  r.b = batch;
  set_spread(r, runs);
  return r;
}

// The ops beside the MAC array (func/kernels.hpp), one image at a zoo
// shape: streamed bytes are the operands and the output, and mac_per_s
// holds output elements per second.
KernelResult time_host_op(simd::Backend b, const std::string& name, i64 n,
                          i64 bytes, i64 elems, int reps, i64 iters,
                          const std::function<void()>& fn) {
  simd::select_backend(b);
  const double secs = best_of(reps, iters, fn);
  KernelResult r;
  r.name = name;
  r.backend = simd::backend_name(b);
  r.n = n;
  r.secs = secs;
  r.gbps = static_cast<double>(sizeof(std::int16_t) * bytes) / secs * 1e-9;
  r.mac_per_s = static_cast<double>(elems) / secs;
  return r;
}

// Post-ReLU-like activations: half zeros, the rest up to +-8.0 in Q7.8.
Tensor3<Fixed16> live_cube(const MapDims& dims, std::uint64_t seed) {
  Rng rng(seed);
  Tensor3<Fixed16> t(dims);
  for (auto& v : t.storage()) {
    const std::uint64_t r = rng.next_u64();
    v = Fixed16::from_raw(static_cast<std::int16_t>(
        r % 2 == 0 ? 0 : static_cast<i64>((r >> 8) % 4097) - 2048));
  }
  return t;
}

// AlexNet's norm1: LRN, local size 5, over 96 maps of 55x55.
KernelResult measure_lrn(simd::Backend b, int reps, i64 iters) {
  const Tensor3<Fixed16> in = live_cube({96, 55, 55}, 41);
  Tensor3<Fixed16> out(in.dims());
  const LRNParams p{.local_size = 5, .alpha = 1e-4, .beta = 0.75};
  return time_host_op(b, "lrn_l5_c96", 55, 2 * in.size(), out.size(), reps,
                      iters, [&] {
                        func::lrn_func_batch({&in}, p, {&out});
                        benchmark::DoNotOptimize(out.raw_data());
                      });
}

// Max pooling, 3x3 at stride 2: AlexNet's pool1 (96 maps of 55x55) and
// ResNet-18's pool1 (64 maps of 112x112, pad 1).
KernelResult measure_max_pool(simd::Backend b, i64 ch, i64 side, i64 pad,
                              int reps, i64 iters) {
  const Tensor3<Fixed16> in = live_cube({ch, side, side}, 42);
  const PoolParams p{.kind = PoolKind::kMax, .k = 3, .stride = 2, .pad = pad};
  Tensor3<Fixed16> out(pool_out_dims(in.dims(), p));
  return time_host_op(b, "max_pool_k3_s2_c" + std::to_string(ch), side,
                      in.size() + out.size(), out.size(), reps, iters, [&] {
                        func::pool_func_batch({&in}, p, {&out});
                        benchmark::DoNotOptimize(out.raw_data());
                      });
}

// ResNet-18's conv2_x residual join with ReLU: 64 maps of 56x56.
KernelResult measure_add(simd::Backend b, int reps, i64 iters) {
  const Tensor3<Fixed16> x = live_cube({64, 56, 56}, 43);
  const Tensor3<Fixed16> y = live_cube({64, 56, 56}, 44);
  Tensor3<Fixed16> out(x.dims());
  return time_host_op(b, "add_relu_c64", 56, 3 * out.size(), out.size(),
                      reps, iters, [&] {
                        func::eltwise_add_func_batch({&x}, {&y}, {true},
                                                     {&out});
                        benchmark::DoNotOptimize(out.raw_data());
                      });
}

int run_perf_harness(const std::string& path, bool quick) {
  const simd::Backend original = simd::active_backend();
  // A lone request's layer kernels fan out to the pool width. Pin it to
  // one lane so every point times serial layers.
  const i64 original_width = parallel::default_jobs();
  parallel::set_default_jobs(1);
  const std::vector<simd::Backend> backends = simd::supported_backends();
  const int reps = quick ? 2 : 5;
  // Iteration counts sized so each rep runs long enough (>~1 ms even on
  // the scalar backend) for steady_clock to resolve the kernel.
  const i64 multi_iters = quick ? 2'000 : 10'000;

  // Point by point, every backend in turn, so a change of host phase
  // between points cannot read as a backend difference.
  std::vector<std::function<KernelResult(simd::Backend)>> points;
  for (i64 n : {64, 256, 1024}) {
    points.push_back([=](simd::Backend b) {
      return measure_dot_mrhs(b, false, n, reps, multi_iters);
    });
    points.push_back([=](simd::Backend b) {
      return measure_dot_mrhs(b, true, n, reps, multi_iters);
    });
  }
  // MobileNetV1's first two depthwise layers (block2: 112x112x32, s1;
  // block3: 112x112x64, s2).
  const i64 dw_iters = quick ? 5 : 20;
  points.push_back([=](simd::Backend b) {
    return measure_depthwise(b, 112, 32, 1, reps, dw_iters);
  });
  points.push_back([=](simd::Backend b) {
    return measure_depthwise(b, 112, 64, 2, reps, dw_iters);
  });
  // Three tile-conv zoo shapes: ResNet-18's conv2_x 3x3 (C64 at 56x56),
  // MobileNetV1's 1x1 pointwise at C512 14x14, and ResNet-18's 7x7 s2
  // conv1 on the 224x224 RGB input. One call is ~50-120M MACs.
  const auto tile_iters = [=](simd::Backend b) -> i64 {
    return b == simd::Backend::kScalar ? 1 : (quick ? 2 : 5);
  };
  points.push_back([=](simd::Backend b) {
    return measure_conv_tile(b, 56, 64, 64, 3, 1, tile_iters(b));
  });
  points.push_back([=](simd::Backend b) {
    return measure_conv_tile(b, 14, 512, 512, 1, 1, tile_iters(b));
  });
  points.push_back([=](simd::Backend b) {
    return measure_conv_tile(b, 224, 3, 64, 7, 2, tile_iters(b));
  });
  // The host-side ops: one call is ~0.3-1 M output elements.
  const i64 host_iters = quick ? 5 : 20;
  points.push_back(
      [=](simd::Backend b) { return measure_lrn(b, reps, host_iters); });
  points.push_back([=](simd::Backend b) {
    return measure_max_pool(b, 96, 55, 0, reps, host_iters);
  });
  points.push_back([=](simd::Backend b) {
    return measure_max_pool(b, 64, 112, 1, reps, host_iters);
  });
  points.push_back(
      [=](simd::Backend b) { return measure_add(b, reps, host_iters); });
  std::vector<KernelResult> kernels;
  for (const auto& point : points)
    for (simd::Backend b : backends) kernels.push_back(point(b));

  // Whole-network simulator wall-clock: AlexNet once per backend (the
  // cross-backend speedup is the headline number), VGG16 only on the best
  // backend — at ~15.5G simulated MACs a scalar VGG16 run would dominate
  // harness time without adding information. --quick drops VGG16.
  std::vector<WholeNetResult> whole;
  const Network anet = zoo::alexnet();
  for (simd::Backend b : backends) whole.push_back(measure_whole_net(anet, b));
  if (!quick)
    whole.push_back(measure_whole_net(zoo::vgg16(), backends.back()));

  // Functional tier: same nets, warm weight-resident forward pass, paired
  // with the cycle wall just measured on the same backend.
  {
    const std::size_t cycle_count = whole.size();
    for (std::size_t i = 0; i < cycle_count; ++i) {
      const Network& net = whole[i].net == "vgg16" ? zoo::vgg16() : anet;
      simd::Backend b = simd::Backend::kScalar;
      for (simd::Backend cand : backends)
        if (simd::backend_name(cand) == whole[i].backend) b = cand;
      whole.push_back(
          measure_whole_net_functional(net, b, whole[i].wall_ms));
    }
  }

  // Modern zoo: ResNet-18 (residual eltwise joins) and MobileNetV1 (13
  // depthwise layers on the partition scheme) on the best backend. The
  // functional tier runs always — one warm pass each is cheap — but the
  // cycle tier only outside --quick (ResNet-18 simulates 1.8G MACs).
  // Without the paired cycle run speedup_vs_cycle stays 0 and the JSON
  // omits the comparison fields, which bench_compare treats as a plain
  // new entry.
  for (Network (*make)() : {zoo::resnet18, zoo::mobilenetv1}) {
    const Network mnet = make();
    double cycle_ms = 0.0;
    if (!quick) {
      whole.push_back(measure_whole_net(mnet, backends.back()));
      cycle_ms = whole.back().wall_ms;
    }
    whole.push_back(
        measure_whole_net_functional(mnet, backends.back(), cycle_ms));
  }

  // Serving: AlexNet through weight-resident sessions on the best
  // backend. jobs=1 carries the per-call comparison (the session-refactor
  // acceptance number); jobs=4 exercises the session pool — a fixed pool
  // size rather than hardware_jobs() so the JSON key is stable across
  // hosts (on few-core machines it shows oversubscription, not scaling).
  // Request counts are small — one AlexNet inference is ~1s of host
  // time — but the paths they compare differ by whole machine builds, so
  // the ratio is stable.
  const i64 serve_jobs_n = 4;
  std::vector<ServeResult> serve;
  serve.push_back(measure_serve(anet, backends.back(), 1, quick ? 2 : 5,
                                /*with_per_call=*/true));
  serve.push_back(measure_serve(anet, backends.back(), serve_jobs_n,
                                quick ? serve_jobs_n : 2 * serve_jobs_n,
                                /*with_per_call=*/false));
  // Functional tier at the same jobs points — this is the warm-vs-warm
  // comparison (both tiers weight-resident), the honest steady-state
  // serving ratio. More requests per point: each is ~10x cheaper.
  {
    const std::size_t cycle_serve = serve.size();
    for (std::size_t i = 0; i < cycle_serve; ++i) {
      ServeResult f = measure_serve(
          anet, backends.back(), serve[i].jobs,
          quick ? 4 * serve[i].requests : 8 * serve[i].requests,
          /*with_per_call=*/false, Fidelity::kFunctional);
      f.speedup_vs_cycle = serve[i].infer_per_s > 0.0
                               ? f.infer_per_s / serve[i].infer_per_s
                               : 0.0;
      serve.push_back(std::move(f));
    }
  }

  // Batched execution ladders (functional tier, jobs=1): B=1/2/4/8 on
  // AlexNet (and VGG16 in full mode) through engine::run_batches — the
  // acceptance curve for the multi-image path.
  for (const Network& net :
       quick ? std::vector<Network>{anet}
             : std::vector<Network>{anet, zoo::vgg16()}) {
    double base = 0.0;
    for (i64 bsz : {1, 2, 4, 8}) {
      ServeResult r = measure_serve_batched(net, backends.back(), bsz,
                                            net.name() == "vgg16" ? 8
                                            : quick              ? 8
                                                                 : 16);
      if (bsz == 1)
        base = r.infer_per_s;
      else
        r.speedup_vs_base = base > 0.0 ? r.infer_per_s / base : 0.0;
      serve.push_back(std::move(r));
    }
  }
  simd::select_backend(original);
  parallel::set_default_jobs(original_width);

  // Exact dot_s16_mrhs speedup of the vector backend over scalar at the
  // same n — the kernel both tiers' exact paths run, tracked across
  // commits.
  auto mrhs_secs = [&](const std::string& backend, i64 n) {
    for (const KernelResult& k : kernels)
      if (k.name == "dot_s16_mrhs" && k.backend == backend && k.n == n)
        return k.secs;
    return 0.0;
  };

  JsonWriter w;
  w.begin_object();
  w.kv("schema_version", 1);
  w.kv("quick", quick);
  w.key("backends").begin_array();
  for (simd::Backend b : backends) w.value(simd::backend_name(b));
  w.end_array();
  w.kv("active_backend", simd::backend_name(original));
  w.key("kernels").begin_array();
  for (const KernelResult& k : kernels) {
    w.begin_object();
    w.kv("name", k.name);
    w.kv("backend", k.backend);
    w.kv("n", k.n);
    w.kv("gbps", k.gbps);
    w.kv("mac_per_s", k.mac_per_s);
    if (k.runs > 0) {
      w.kv("runs", k.runs);
      w.kv("gbps_min", k.gbps_min);
      w.kv("gbps_max", k.gbps_max);
    }
    w.end_object();
  }
  w.end_array();
  w.key("speedup_vs_scalar").begin_array();
  for (simd::Backend b : backends) {
    if (b == simd::Backend::kScalar) continue;
    for (i64 n : {64, 256, 1024}) {
      const double s = mrhs_secs("scalar", n);
      const double v = mrhs_secs(simd::backend_name(b), n);
      if (s <= 0.0 || v <= 0.0) continue;
      w.begin_object();
      w.kv("kernel", "dot_s16_mrhs");
      w.kv("backend", simd::backend_name(b));
      w.kv("n", n);
      w.kv("speedup", s / v);
      w.end_object();
    }
  }
  w.end_array();
  w.key("whole_net").begin_array();
  for (const WholeNetResult& r : whole) {
    w.begin_object();
    w.kv("net", r.net);
    w.kv("policy", "adap-2");
    w.kv("backend", r.backend);
    w.kv("tier", r.tier);
    w.kv("wall_ms", r.wall_ms);
    if (r.tier == "cycle") {
      w.kv("setup_ms", r.setup_ms);
      w.kv("infer_ms", r.infer_ms);
      w.kv("runs", kSpreadRuns);
      w.kv("infer_ms_min", r.infer_ms_min);
      w.kv("infer_ms_max", r.infer_ms_max);
    }
    w.kv("sim_mac_per_s", r.sim_mac_per_s);
    if (r.speedup_vs_cycle > 0.0) {
      // Basis: cycle_wall_ms is the single-shot per-inference cost the
      // functional tier replaces; the warm-vs-warm ratio is in "serve".
      w.kv("cycle_wall_ms", r.cycle_wall_ms);
      w.kv("speedup_vs_cycle", r.speedup_vs_cycle);
    }
    w.end_object();
  }
  w.end_array();
  w.key("serve").begin_array();
  for (const ServeResult& r : serve) {
    w.begin_object();
    w.kv("net", r.net);
    w.kv("policy", "adap-2");
    w.kv("backend", r.backend);
    w.kv("tier", r.tier);
    w.kv("jobs", r.jobs);
    w.kv("requests", r.requests);
    w.kv("infer_per_s", r.infer_per_s);
    w.kv("runs", kSpreadRuns);
    w.kv("infer_per_s_min", r.infer_per_s_min);
    w.kv("infer_per_s_max", r.infer_per_s_max);
    if (r.per_call_infer_per_s > 0.0) {
      w.kv("per_call_infer_per_s", r.per_call_infer_per_s);
      w.kv("speedup_vs_per_call", r.speedup_vs_per_call);
    }
    if (r.speedup_vs_cycle > 0.0)
      w.kv("speedup_vs_cycle", r.speedup_vs_cycle);
    // Batched-ladder points: the key is omitted at 1 so pre-batching
    // baselines keep matching the unbatched entries (bench_compare
    // missing-key=1).
    if (r.b != 1) w.kv("b", r.b);
    if (r.speedup_vs_base > 0.0)
      w.kv("speedup_vs_base", r.speedup_vs_base);
    w.end_object();
  }
  w.end_array();
  w.end_object();

  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_micro_kernels: cannot write %s\n",
                 path.c_str());
    return 1;
  }
  f << w.str() << "\n";
  std::printf("wrote %s (%zu kernel points, %zu whole-net runs, "
              "%zu serve points)\n",
              path.c_str(), kernels.size(), whole.size(), serve.size());
  for (const KernelResult& k : kernels) {
    std::printf("  %-16s %-6s n=%-5lld %8.2f GB/s %12.0f MAC/s",
                k.name.c_str(), k.backend.c_str(),
                static_cast<long long>(k.n), k.gbps, k.mac_per_s);
    if (k.runs > 0)
      std::printf("  (median of %d, %.2f-%.2f GB/s)", k.runs, k.gbps_min,
                  k.gbps_max);
    std::printf("\n");
  }
  for (const WholeNetResult& r : whole) {
    std::printf("  sim %-9s %-6s [%-10s] %10.1f ms %14.0f MAC/s",
                r.net.c_str(), r.backend.c_str(), r.tier.c_str(), r.wall_ms,
                r.sim_mac_per_s);
    if (r.tier == "cycle")
      std::printf("  (setup %.1f ms + infer %.1f ms, median of %d warm, "
                  "%.1f-%.1f)",
                  r.setup_ms, r.infer_ms, kSpreadRuns, r.infer_ms_min,
                  r.infer_ms_max);
    if (r.speedup_vs_cycle > 0.0)
      std::printf("  (%.1fx vs cycle single-shot)", r.speedup_vs_cycle);
    std::printf("\n");
  }
  for (const ServeResult& r : serve) {
    std::printf("  serve %-7s %-6s [%-10s] jobs=%-2lld %7.3f inf/s "
                "(median of %d, %.3f-%.3f)",
                r.net.c_str(), r.backend.c_str(), r.tier.c_str(),
                static_cast<long long>(r.jobs), r.infer_per_s, kSpreadRuns,
                r.infer_per_s_min, r.infer_per_s_max);
    if (r.b != 1) std::printf("  b=%lld", static_cast<long long>(r.b));
    if (r.per_call_infer_per_s > 0.0)
      std::printf("  (per-call %.3f inf/s, session %.2fx)",
                  r.per_call_infer_per_s, r.speedup_vs_per_call);
    if (r.speedup_vs_cycle > 0.0)
      std::printf("  (%.2fx vs cycle serve)", r.speedup_vs_cycle);
    if (r.speedup_vs_base > 0.0)
      std::printf("  (%.2fx vs b=1)", r.speedup_vs_base);
    std::printf("\n");
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool perf_mode = false;
  bool quick = false;
  std::vector<char*> passthrough = {argv[0]};
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--perf-json") {
      perf_mode = true;
      json_path = "BENCH_kernels.json";
    } else if (arg.rfind("--perf-json=", 0) == 0) {
      perf_mode = true;
      json_path = arg.substr(std::strlen("--perf-json="));
    } else if (arg == "--quick") {
      quick = true;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (perf_mode) return run_perf_harness(json_path, quick);

  register_simd_benches();
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, passthrough.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
