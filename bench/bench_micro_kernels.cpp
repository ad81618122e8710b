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
// times dot_s16_mrhs[_exact], the functional tier's depthwise layer at two
// MobileNetV1 shapes, its tile conv at three zoo shapes and its host-side
// ops (LRN, max pool, residual add) at four on every supported SIMD
// backend, plus whole-network wall-clock at both execution tiers (cycle:
// setup plus a warm inference, on every backend for AlexNet, VGG16 under
// the best one; functional: warm weight-resident forward pass, with its
// speedup over the cycle tier) and the serving path (AlexNet through
// weight-resident engine sessions at jobs 1 and N, at both fidelities,
// vs the per-call simulate path), and writes the results as JSON
// (default: BENCH_kernels.json in the working directory). --quick drops
// VGG16 and shortens the runs. Every point is the median of kSpreadRuns
// runs, reported with their min and max; where a point has a value per
// backend, the backends take turns run by run. So a single slow run on a
// shared host does not read as a regression, and tools/bench_compare.py
// flags one only when the two files' ranges do not overlap. CI runs the
// quick mode and diffs against the committed baseline; the diff is
// informational, not a gate. A cycle whole-net point times its setup
// kSpreadRuns times and its warm inferences kSpreadRuns times, after
// one cold one.
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
// appear: BM_DotS16MrhsExact/<backend>/n, one exact dot per call (the
// single-column, single-row shape of a cycle-tier FC lane group).

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
    simd::dot_s16_mrhs_exact(data.data(), n, 1, weights.data(), n, 1, n, &acc,
                             1);
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
          ("BM_DotS16MrhsExact/" + name + "/" + std::to_string(n)).c_str(),
          [b, n](benchmark::State& s) { run_dot_bench(s, b, n); });
    }
  }
}

// --- perf-regression harness (--perf-json) ---------------------------------

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Mean wall time of one call of fn() over `iters` calls.
template <typename Fn>
double time_calls(i64 iters, Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  for (i64 i = 0; i < iters; ++i) fn();
  return seconds_since(t0) / static_cast<double>(iters);
}

// Runs behind every point (odd, so the median is one run); the median is
// the point's value, min and max its spread.
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

// kSpreadRuns runs of time_once() (seconds) on each backend, the backends
// taking turns run by run, so a change of host load during a point hits
// every backend alike. One spread per backend, in `backends` order.
std::vector<Spread> alternate_backends(
    const std::vector<simd::Backend>& backends,
    const std::function<double()>& time_once) {
  std::vector<std::vector<double>> secs(backends.size());
  for (int run = 0; run < kSpreadRuns; ++run)
    for (std::size_t i = 0; i < backends.size(); ++i) {
      simd::select_backend(backends[i]);
      secs[i].push_back(time_once());
    }
  std::vector<Spread> out;
  for (std::vector<double>& v : secs) out.push_back(spread_of(std::move(v)));
  return out;
}

struct KernelResult {
  std::string name;
  std::string backend;
  i64 n = 0;
  double gbps = 0.0;  // the median run's, with the runs' range
  double gbps_min = 0.0;
  double gbps_max = 0.0;
  double mac_per_s = 0.0;
  double secs = 0.0;  // the median run's seconds per call
};

// One kernel point: the bytes it streams and the work (MACs, or output
// elements for a host op) it does per call, and one timed run — mean
// seconds per call — on the active backend. Its operands are built once
// and shared by every backend and run.
struct KernelPoint {
  std::string name;
  i64 n = 0;
  double bytes = 0.0;
  double work = 0.0;
  std::function<double()> time_once;
};

std::vector<KernelResult> run_point(
    const KernelPoint& p, const std::vector<simd::Backend>& backends) {
  const std::vector<Spread> spreads = alternate_backends(backends, p.time_once);
  std::vector<KernelResult> out;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    const Spread& s = spreads[i];
    KernelResult r;
    r.name = p.name;
    r.backend = simd::backend_name(backends[i]);
    r.n = p.n;
    r.secs = s.median;
    r.gbps = p.bytes / s.median * 1e-9;
    r.gbps_min = p.bytes / s.max * 1e-9;
    r.gbps_max = p.bytes / s.min * 1e-9;
    r.mac_per_s = p.work / s.median;
    out.push_back(r);
  }
  return out;
}

// The multi-RHS GEMM kernels behind both tiers (the exact one runs
// cycle-tier FC, the fast one functional FC): one kMrhsRows-row weight
// panel against kMrhsCols data columns per call. Both share the
// measurement shape; the fast one's weights are shrunk to honour the
// filter-sum contract (checked with simd::filter_sum_ok rather than
// assumed).
constexpr i64 kMrhsRows = 16;
constexpr i64 kMrhsCols = 8;

KernelPoint dot_mrhs_point(bool exact, i64 n, i64 iters) {
  struct State {
    std::vector<std::int16_t> data, weights;
    std::vector<Fixed16::acc_t> out;
  };
  auto st = std::make_shared<State>();
  st->data = random_s16(n * kMrhsCols, 27);
  st->weights = random_s16(n * kMrhsRows, 28);
  if (!exact) {
    // |w| <= kFilterSumBound / n keeps every row's sum inside the bound.
    for (auto& w : st->weights)
      w = static_cast<std::int16_t>(w % (simd::kFilterSumBound / n + 1));
    CBRAIN_CHECK(simd::filter_sum_ok(st->weights.data(), n, kMrhsRows, n),
                 "mrhs bench weights must satisfy the filter-sum contract");
  }
  st->out.resize(static_cast<std::size_t>(kMrhsRows * kMrhsCols));
  KernelPoint p;
  p.name = exact ? "dot_s16_mrhs_exact" : "dot_s16_mrhs";
  p.n = n;
  // Bytes streamed: kMrhsCols data columns + kMrhsRows weight rows.
  p.bytes = static_cast<double>(sizeof(std::int16_t) * n *
                                (kMrhsCols + kMrhsRows));
  p.work = static_cast<double>(n * kMrhsRows * kMrhsCols);
  p.time_once = [st, exact, n, iters] {
    const auto fn = exact ? simd::dot_s16_mrhs_exact : simd::dot_s16_mrhs;
    return time_calls(iters, [&] {
      fn(st->data.data(), n, kMrhsCols, st->weights.data(), n, kMrhsRows, n,
         st->out.data(), kMrhsCols);
      benchmark::DoNotOptimize(st->out.data());
    });
  };
  return p;
}

// One functional conv layer over one image: conv2d_func_batch on packed
// weights, resident output and kernel scratch.
struct FuncConv {
  ConvParams p;
  Tensor3<Fixed16> input;
  Tensor3<Fixed16> output;
  func::PackedRows pack;
  bool exact = true;
  std::vector<Fixed16::acc_t> bias;
  func::KernelScratch scratch;

  void run() {
    func::conv2d_func_batch({&input}, pack, bias, p, exact, scratch,
                            {&output});
    benchmark::DoNotOptimize(output.raw_data());
  }
};

// The functional tier's depthwise layer path (zero-padded plane staging
// plus simd::dw_conv_s16) at a MobileNetV1 shape: one image of `ch`
// planes of side `side`, 3x3, pad 1, under a filter set that satisfies
// the depthwise contract. Streamed bytes: the input and output planes.
KernelPoint depthwise_point(i64 side, i64 ch, i64 stride, i64 iters) {
  auto c = std::make_shared<FuncConv>();
  c->p = {.dout = ch, .k = 3, .stride = stride, .pad = 1, .groups = ch};
  c->input = random_input<Fixed16>({ch, side, side}, 31);
  const auto w = random_s16(ch * 9, 32);
  c->pack.resize(static_cast<std::size_t>(ch * 9));
  for (std::size_t i = 0; i < c->pack.size(); ++i)
    c->pack[i] = static_cast<std::int16_t>(w[i] % 512);
  c->exact = !simd::filter_sum_ok(c->pack.data(), 9, ch, 9);
  CBRAIN_CHECK(!c->exact,
               "depthwise bench weights must satisfy the filter-sum contract");
  c->bias.assign(static_cast<std::size_t>(ch), 0);
  const i64 out_side = conv_out_extent(side, 3, stride, 1);
  c->output = Tensor3<Fixed16>({ch, out_side, out_side});
  KernelPoint p;
  p.name = "depthwise_s" + std::to_string(stride) + "_c" + std::to_string(ch);
  p.n = side;
  p.bytes = static_cast<double>(sizeof(std::int16_t) * ch *
                                (side * side + out_side * out_side));
  p.work = static_cast<double>(ch * out_side * out_side * 9);
  p.time_once = [c, iters] { return time_calls(iters, [&] { c->run(); }); };
  return p;
}

// The functional tier's tile conv path (staging plus simd::conv_tile_s16)
// at a zoo shape: one image of `din` channels of side `side`, `dout` k×k
// filters at `stride` (pad (k - 1) / 2), under weights that satisfy the
// filter-sum contract. Streamed bytes: the input and output cubes. The
// scalar backend runs one call per run, the vector backends `iters`.
KernelPoint conv_tile_point(i64 side, i64 din, i64 dout, i64 k, i64 stride,
                            i64 iters) {
  auto c = std::make_shared<FuncConv>();
  c->p = {.dout = dout, .k = k, .stride = stride, .pad = (k - 1) / 2};
  Network net("conv_tile");
  const LayerId id =
      net.add_conv(net.add_input({din, side, side}), "conv", c->p);
  const Layer& l = net.layer(id);
  Tensor4<Fixed16> w(l.weight_dims());
  const auto raw = random_s16(w.size(), 33);
  for (std::size_t i = 0; i < raw.size(); ++i)
    w.storage()[i] = Fixed16::from_raw(static_cast<std::int16_t>(raw[i] % 32));
  const func::PackPlan plan = func::pack_plan(l);
  c->pack.resize(static_cast<std::size_t>(plan.units * plan.unit_elems));
  c->exact = func::pack_units(l, plan, w.raw_data(), 0, plan.units,
                              c->pack.data());
  CBRAIN_CHECK(!c->exact,
               "conv_tile bench weights must satisfy the filter-sum contract");
  c->bias.assign(static_cast<std::size_t>(dout), 0);
  c->input = random_input<Fixed16>(l.in_dims, 34);
  c->output = Tensor3<Fixed16>(l.out_dims);
  KernelPoint p;
  p.name = "conv_tile_k" + std::to_string(k) + "_s" + std::to_string(stride) +
           "_c" + std::to_string(din);
  p.n = side;
  p.bytes = static_cast<double>(
      sizeof(std::int16_t) * (l.in_dims.count() + l.out_dims.count()));
  p.work = static_cast<double>(l.out_dims.count() * din * k * k);
  p.time_once = [c, iters] {
    const i64 n =
        simd::active_backend() == simd::Backend::kScalar ? 1 : iters;
    return time_calls(n, [&] { c->run(); });
  };
  return p;
}

struct WholeNetResult {
  std::string net;
  std::string backend;
  std::string tier = "cycle";
  Spread wall_ms;   // cycle tier: setup + infer, run by run
  Spread setup_ms;  // cycle tier only
  Spread infer_ms;  // cycle tier only: warm inferences
  double sim_mac_per_s = 0.0;
  double cycle_wall_ms = 0.0;      // functional tier: the cycle wall it beats
  double speedup_vs_cycle = 0.0;   // functional tier only
};

Spread to_ms(const Spread& s) {
  return {s.median * 1e3, s.min * 1e3, s.max * 1e3};
}

// Cycle-tier whole-net wall: setup — param synthesis, compile, session
// open, DRAM weight load — and then one inference on the session. Setup
// runs no SIMD kernel, so it is timed kSpreadRuns times once per net and
// shared by every backend's point. The first inference on the last
// session is cold (it faults in the simulated memories) and runs untimed;
// then each backend times kSpreadRuns warm ones, the backends taking
// turns. wall_ms is setup + infer: the single-shot cost, with a warm
// infer.
std::vector<WholeNetResult> measure_whole_net(
    const Network& net, const std::vector<simd::Backend>& backends) {
  const NetworkWorkload w = analyze_workload(net);
  std::unique_ptr<engine::Engine> eng;
  std::unique_ptr<engine::Session> session;
  Tensor3<Fixed16> input;
  std::vector<double> setup_secs;
  for (int run = 0; run < kSpreadRuns; ++run) {
    session.reset();
    eng.reset();
    const Clock::time_point t0 = Clock::now();
    eng = std::make_unique<engine::Engine>(AcceleratorConfig::paper_16_16());
    const auto params = init_net_params<Fixed16>(net, 42);
    input = random_input<Fixed16>(net.layer(0).out_dims, 42 ^ 0x1234);
    session = eng->open_session(net, Policy::kAdaptive2, params);
    setup_secs.push_back(seconds_since(t0));
  }
  const Spread setup = spread_of(setup_secs);
  benchmark::DoNotOptimize(session->infer(input).final_output.size());
  const std::vector<Spread> infer = alternate_backends(backends, [&] {
    const Clock::time_point t1 = Clock::now();
    benchmark::DoNotOptimize(session->infer(input).final_output.size());
    return seconds_since(t1);
  });
  std::vector<WholeNetResult> out;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    WholeNetResult r;
    r.net = net.name();
    r.backend = simd::backend_name(backends[i]);
    r.setup_ms = to_ms(setup);
    r.infer_ms = to_ms(infer[i]);
    r.wall_ms = {r.setup_ms.median + r.infer_ms.median,
                 r.setup_ms.min + r.infer_ms.min,
                 r.setup_ms.max + r.infer_ms.max};
    r.sim_mac_per_s = static_cast<double>(w.total_macs) /
                      (setup.median + infer[i].median);
    out.push_back(r);
  }
  return out;
}

// Functional-tier whole-net wall: warm forward passes through one
// weight-resident session, the backends taking turns. The speedup basis
// is deliberate: the paired cycle number (cycle[i], for backends[i]; none
// when `cycle` is null) is the per-inference cost of the status-quo
// single-shot path (machine build + param materialization + simulate —
// what each request paid before the tier split), and the functional
// number is what a request pays on the new tier once weights are
// resident. The warm-vs-warm ratio (both tiers session-resident) is the
// serve-tier comparison below — both bases are recorded side by side.
std::vector<WholeNetResult> measure_whole_net_functional(
    const Network& net, const std::vector<simd::Backend>& backends,
    const std::vector<WholeNetResult>* cycle) {
  const NetworkWorkload w = analyze_workload(net);
  engine::Engine eng(AcceleratorConfig::paper_16_16());
  const auto params = init_net_params<Fixed16>(net, 42);
  auto session = eng.open_session(net, Policy::kAdaptive2, params,
                                  Fidelity::kFunctional);
  const auto input =
      random_input<Fixed16>(net.layer(0).out_dims, 42 ^ 0x1234);
  benchmark::DoNotOptimize(session->infer(input).final_output.size());  // warm
  const std::vector<Spread> wall = alternate_backends(backends, [&] {
    const Clock::time_point t0 = Clock::now();
    benchmark::DoNotOptimize(session->infer(input).final_output.size());
    return seconds_since(t0);
  });
  std::vector<WholeNetResult> out;
  for (std::size_t i = 0; i < backends.size(); ++i) {
    WholeNetResult r;
    r.net = net.name();
    r.backend = simd::backend_name(backends[i]);
    r.tier = "functional";
    r.wall_ms = to_ms(wall[i]);
    r.sim_mac_per_s = static_cast<double>(w.total_macs) / wall[i].median;
    if (cycle != nullptr) {
      r.cycle_wall_ms = (*cycle)[i].wall_ms.median;
      r.speedup_vs_cycle = r.cycle_wall_ms / r.wall_ms.median;
    }
    out.push_back(r);
  }
  return out;
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

// The ops beside the MAC array (func/kernels.hpp), one image at a zoo
// shape: streamed bytes are the operands and the output, and the work is
// output elements. `fn(in, out)` runs the op on the point's live cubes.
KernelPoint host_op_point(
    const std::string& name, i64 n, const MapDims& in_dims,
    const MapDims& out_dims, i64 operands, i64 iters,
    std::function<void(const std::vector<Tensor3<Fixed16>>&,
                       Tensor3<Fixed16>&)>
        fn) {
  struct State {
    std::vector<Tensor3<Fixed16>> in;
    Tensor3<Fixed16> out;
  };
  auto st = std::make_shared<State>();
  for (i64 i = 0; i < operands; ++i)
    st->in.push_back(live_cube(in_dims, static_cast<std::uint64_t>(41 + i)));
  st->out = Tensor3<Fixed16>(out_dims);
  KernelPoint p;
  p.name = name;
  p.n = n;
  p.bytes = static_cast<double>(
      sizeof(std::int16_t) * (operands * in_dims.count() + out_dims.count()));
  p.work = static_cast<double>(out_dims.count());
  p.time_once = [st, fn, iters] {
    return time_calls(iters, [&] {
      fn(st->in, st->out);
      benchmark::DoNotOptimize(st->out.raw_data());
    });
  };
  return p;
}

// AlexNet's norm1: LRN, local size 5, over 96 maps of 55x55.
KernelPoint lrn_point(i64 iters) {
  const LRNParams p{.local_size = 5, .alpha = 1e-4, .beta = 0.75};
  return host_op_point("lrn_l5_c96", 55, {96, 55, 55}, {96, 55, 55}, 1, iters,
                       [p](const auto& in, auto& out) {
                         func::lrn_func_batch({&in[0]}, p, {&out});
                       });
}

// Max pooling, 3x3 at stride 2: AlexNet's pool1 (96 maps of 55x55) and
// ResNet-18's pool1 (64 maps of 112x112, pad 1).
KernelPoint max_pool_point(i64 ch, i64 side, i64 pad, i64 iters) {
  const PoolParams p{.kind = PoolKind::kMax, .k = 3, .stride = 2, .pad = pad};
  const MapDims in{ch, side, side};
  return host_op_point("max_pool_k3_s2_c" + std::to_string(ch), side, in,
                       pool_out_dims(in, p), 1, iters,
                       [p](const auto& ins, auto& out) {
                         func::pool_func_batch({&ins[0]}, p, {&out});
                       });
}

// ResNet-18's conv2_x residual join with ReLU: 64 maps of 56x56.
KernelPoint add_point(i64 iters) {
  return host_op_point("add_relu_c64", 56, {64, 56, 56}, {64, 56, 56}, 2,
                       iters, [](const auto& in, auto& out) {
                         func::eltwise_add_func_batch({&in[0]}, {&in[1]},
                                                      {true}, {&out});
                       });
}

int run_perf_harness(const std::string& path, bool quick) {
  const simd::Backend original = simd::active_backend();
  // A lone request's layer kernels fan out to the pool width. Pin it to
  // one lane so every point times serial layers.
  const i64 original_width = parallel::default_jobs();
  parallel::set_default_jobs(1);
  const std::vector<simd::Backend> backends = simd::supported_backends();
  // Iteration counts sized so each run lasts long enough (>~1 ms even on
  // the scalar backend) for steady_clock to resolve the kernel.
  const i64 multi_iters = quick ? 2'000 : 10'000;

  // Point by point, each point's runs alternating the backends
  // (alternate_backends), so a change of host load cannot read as a
  // backend difference.
  std::vector<KernelPoint> points;
  for (i64 n : {64, 256, 1024}) {
    points.push_back(dot_mrhs_point(true, n, multi_iters));
    points.push_back(dot_mrhs_point(false, n, multi_iters));
  }
  // MobileNetV1's first two depthwise layers (block2: 112x112x32, s1;
  // block3: 112x112x64, s2).
  const i64 dw_iters = quick ? 5 : 20;
  points.push_back(depthwise_point(112, 32, 1, dw_iters));
  points.push_back(depthwise_point(112, 64, 2, dw_iters));
  // Three tile-conv zoo shapes: ResNet-18's conv2_x 3x3 (C64 at 56x56),
  // MobileNetV1's 1x1 pointwise at C512 14x14, and ResNet-18's 7x7 s2
  // conv1 on the 224x224 RGB input. One call is ~50-120M MACs.
  const i64 tile_iters = quick ? 2 : 5;
  points.push_back(conv_tile_point(56, 64, 64, 3, 1, tile_iters));
  points.push_back(conv_tile_point(14, 512, 512, 1, 1, tile_iters));
  points.push_back(conv_tile_point(224, 3, 64, 7, 2, tile_iters));
  // The host-side ops: one call is ~0.3-1 M output elements.
  const i64 host_iters = quick ? 5 : 20;
  points.push_back(lrn_point(host_iters));
  points.push_back(max_pool_point(96, 55, 0, host_iters));
  points.push_back(max_pool_point(64, 112, 1, host_iters));
  points.push_back(add_point(host_iters));
  std::vector<KernelResult> kernels;
  for (const KernelPoint& point : points)
    for (KernelResult& r : run_point(point, backends))
      kernels.push_back(std::move(r));

  // Whole-network simulator wall-clock: AlexNet on every backend (the
  // cross-backend speedup is the headline number), VGG16 only on the best
  // backend — at ~15.5G simulated MACs a scalar VGG16 run would dominate
  // harness time without adding information. --quick drops VGG16. The
  // functional tier then runs the same nets, each paired with the cycle
  // wall just measured on the same backend.
  std::vector<WholeNetResult> whole;
  const Network anet = zoo::alexnet();
  const std::vector<WholeNetResult> anet_cycle =
      measure_whole_net(anet, backends);
  std::vector<WholeNetResult> vgg_cycle;
  if (!quick) vgg_cycle = measure_whole_net(zoo::vgg16(), {backends.back()});
  whole.insert(whole.end(), anet_cycle.begin(), anet_cycle.end());
  whole.insert(whole.end(), vgg_cycle.begin(), vgg_cycle.end());
  for (const WholeNetResult& r :
       measure_whole_net_functional(anet, backends, &anet_cycle))
    whole.push_back(r);
  if (!quick)
    for (const WholeNetResult& r : measure_whole_net_functional(
             zoo::vgg16(), {backends.back()}, &vgg_cycle))
      whole.push_back(r);

  // Modern zoo: ResNet-18 (residual eltwise joins) and MobileNetV1 (13
  // depthwise layers on the partition scheme) on the best backend. The
  // functional tier runs always — a few warm passes each are cheap — but
  // the cycle tier only outside --quick (ResNet-18 simulates 1.8G MACs).
  // Without the paired cycle run speedup_vs_cycle stays 0 and the JSON
  // omits the comparison fields, which bench_compare treats as a plain
  // new entry.
  for (Network (*make)() : {zoo::resnet18, zoo::mobilenetv1}) {
    const Network mnet = make();
    std::vector<WholeNetResult> cycle;
    if (!quick) cycle = measure_whole_net(mnet, {backends.back()});
    whole.insert(whole.end(), cycle.begin(), cycle.end());
    for (const WholeNetResult& r : measure_whole_net_functional(
             mnet, {backends.back()}, quick ? nullptr : &cycle))
      whole.push_back(r);
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

  // dot_s16_mrhs_exact speedup of the vector backend over scalar at the
  // same n — the kernel cycle-tier FC runs, tracked across commits.
  auto mrhs_secs = [&](const std::string& backend, i64 n) {
    for (const KernelResult& k : kernels)
      if (k.name == "dot_s16_mrhs_exact" && k.backend == backend && k.n == n)
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
    w.kv("runs", kSpreadRuns);
    w.kv("gbps_min", k.gbps_min);
    w.kv("gbps_max", k.gbps_max);
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
      w.kv("kernel", "dot_s16_mrhs_exact");
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
    w.kv("runs", kSpreadRuns);
    w.kv("wall_ms", r.wall_ms.median);
    w.kv("wall_ms_min", r.wall_ms.min);
    w.kv("wall_ms_max", r.wall_ms.max);
    if (r.tier == "cycle") {
      w.kv("setup_ms", r.setup_ms.median);
      w.kv("setup_ms_min", r.setup_ms.min);
      w.kv("setup_ms_max", r.setup_ms.max);
      w.kv("infer_ms", r.infer_ms.median);
      w.kv("infer_ms_min", r.infer_ms.min);
      w.kv("infer_ms_max", r.infer_ms.max);
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
    std::printf("  %-16s %-6s n=%-5lld %8.2f GB/s %12.0f MAC/s"
                "  (median of %d, %.2f-%.2f GB/s)\n",
                k.name.c_str(), k.backend.c_str(),
                static_cast<long long>(k.n), k.gbps, k.mac_per_s,
                kSpreadRuns, k.gbps_min, k.gbps_max);
  }
  for (const WholeNetResult& r : whole) {
    std::printf("  sim %-9s %-6s [%-10s] %10.1f ms %14.0f MAC/s",
                r.net.c_str(), r.backend.c_str(), r.tier.c_str(),
                r.wall_ms.median, r.sim_mac_per_s);
    if (r.tier == "cycle")
      std::printf("  (setup %.1f ms + infer %.1f ms, medians of %d, infer "
                  "%.1f-%.1f)",
                  r.setup_ms.median, r.infer_ms.median, kSpreadRuns,
                  r.infer_ms.min, r.infer_ms.max);
    else
      std::printf("  (median of %d, %.1f-%.1f)", kSpreadRuns, r.wall_ms.min,
                  r.wall_ms.max);
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
