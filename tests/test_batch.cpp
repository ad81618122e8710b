// Batched-inference semantics, model level and execution level.
//
// Model level: batch=1 is the identity; compute scales linearly; weight
// DRAM traffic is amortized; activation traffic is not.
//
// Execution level (the functional tier's multi-image GEMM path):
// infer_batch is bitwise-identical to sequential infer at any batch
// size, worker-pool width and SIMD backend; a malformed input fails only
// its slot; warm same-shape batches allocate nothing beyond the returned
// SimResults (pinned with a counting global allocator plus the
// scratch_growths() hook); Engine::run_batches validates its partition
// and, like run_many, matches sequential Session::infer byte for byte.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>

#include "cbrain/common/rng.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/engine/engine.hpp"
#include "cbrain/func/executor.hpp"
#include "cbrain/func/kernels.hpp"
#include "cbrain/model/network_model.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/simd/simd.hpp"
#include "support.hpp"

// Counting global allocator: every operator-new in this binary bumps the
// counter, so a test can pin "this call allocates exactly as much as the
// previous identical call" — the steady-state contract — without
// guessing at internal allocation sites. Frees go through std::free to
// stay paired at any alignment the default new would have used. The
// deletes stay out of line, like the library's: inlined, their free()
// would meet an operator-new pointer at the call site, which GCC reports
// as -Wmismatched-new-delete.
namespace {
std::atomic<long long> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

void* operator new[](std::size_t n) { return ::operator new(n); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cbrain {
namespace {

const AcceleratorConfig kCfg = AcceleratorConfig::paper_16_16();

TEST(Batch, OneIsIdentity) {
  ModelOptions b1;
  b1.batch = 1;
  const auto a = model_network(zoo::alexnet(), Policy::kAdaptive2, kCfg);
  const auto b = model_network(zoo::alexnet(), Policy::kAdaptive2, kCfg, b1);
  EXPECT_EQ(a.cycles(), b.cycles());
  EXPECT_EQ(a.totals.dram_words(), b.totals.dram_words());
}

TEST(Batch, ComputeScalesLinearly) {
  ModelOptions b4;
  b4.batch = 4;
  const auto one = model_network(zoo::alexnet(), Policy::kAdaptive2, kCfg);
  const auto four =
      model_network(zoo::alexnet(), Policy::kAdaptive2, kCfg, b4);
  EXPECT_EQ(four.totals.compute_cycles, 4 * one.totals.compute_cycles);
  EXPECT_EQ(four.totals.mul_ops, 4 * one.totals.mul_ops);
  // Buffer traffic (on-chip) also scales: per-image work repeats.
  EXPECT_EQ(four.totals.input_reads, 4 * one.totals.input_reads);
}

TEST(Batch, WeightDramTrafficIsAmortized) {
  ModelOptions base, b8;
  base.include_fc = true;
  b8.include_fc = true;
  b8.batch = 8;
  const auto one =
      model_network(zoo::alexnet(), Policy::kAdaptive2, kCfg, base);
  const auto eight =
      model_network(zoo::alexnet(), Policy::kAdaptive2, kCfg, b8);
  // Weight buffer fills (DMA) unchanged; input fills x8.
  EXPECT_EQ(eight.totals.weight_writes, one.totals.weight_writes);
  EXPECT_EQ(eight.totals.input_writes, 8 * one.totals.input_writes);
  // Per-image latency improves when FC weight streaming dominates.
  EXPECT_LT(eight.cycles(), 8 * one.cycles());
  // But never below the pure-compute bound.
  EXPECT_GE(eight.cycles(), 8 * one.totals.compute_cycles);
}

TEST(Batch, ConvOnlyNetworksGainLittle) {
  // AlexNet's conv pipeline is activation-dominated: batching must not
  // change per-image time by more than the small weight-DMA share.
  ModelOptions b8;
  b8.batch = 8;
  const auto one = model_network(zoo::alexnet(), Policy::kAdaptive2, kCfg);
  const auto eight =
      model_network(zoo::alexnet(), Policy::kAdaptive2, kCfg, b8);
  const double per_image =
      static_cast<double>(eight.cycles()) / 8.0;
  EXPECT_GT(per_image, 0.80 * static_cast<double>(one.cycles()));
  EXPECT_LE(per_image, static_cast<double>(one.cycles()));
}

// --- execution level: the batched functional tier ----------------------

// A small net covering every batched-kernel path at once: grouped conv
// with padding (staged pad frame + group grain), LRN, pool, FC, softmax.
Network batch_exec_net() {
  Network net("batch_exec_net");
  LayerId t = net.add_input({4, 14, 14});
  t = net.add_conv(t, "conv1", {.dout = 8, .k = 3, .stride = 1, .pad = 1});
  t = net.add_lrn(t, "norm1");
  t = net.add_conv(t, "conv2",
                   {.dout = 8, .k = 3, .stride = 1, .pad = 1, .groups = 2});
  t = net.add_pool(t, "pool2", {.kind = PoolKind::kMax, .k = 2, .stride = 2});
  t = net.add_fc(t, "fc3", {.dout = 10, .relu = false});
  net.add_softmax(t);
  return net;
}

struct BackendGuard {
  ~BackendGuard() { simd::select_backend("auto"); }
};

// Sets the worker-pool width for one scope, then restores it. A
// single-caller infer_batch fans its layer kernels out to this width.
struct PoolWidth {
  explicit PoolWidth(i64 jobs) : before(parallel::default_jobs()) {
    parallel::set_default_jobs(jobs);
  }
  ~PoolWidth() { parallel::set_default_jobs(before); }
  i64 before;
};

// Sequential per-input reference results on the scalar backend with a
// serial pool — the canonical answer every batched/parallel/SIMD
// configuration must reproduce bit for bit.
std::vector<Tensor3<Fixed16>> sequential_outputs(
    const Network& net, const CompiledNetwork& compiled,
    const NetParamsData<Fixed16>& params,
    const std::vector<Tensor3<Fixed16>>& inputs) {
  BackendGuard guard;
  PoolWidth serial(1);
  simd::select_backend("scalar");
  func::FuncExecutor exec(net, compiled, AcceleratorConfig{});
  exec.load_params(params);
  std::vector<Tensor3<Fixed16>> outs;
  for (const auto& in : inputs) outs.push_back(exec.infer(in).final_output);
  return outs;
}

TEST(BatchExec, BitwiseIdentityAcrossBackendsIntraJobsAndBatchShapes) {
  for (const Network& net : {batch_exec_net(), zoo::tiny_cnn()}) {
    SCOPED_TRACE(net.name());
    const auto params = init_net_params<Fixed16>(net, 42);
    auto compiled =
        compile_network(net, Policy::kAdaptive2, AcceleratorConfig{});
    ASSERT_TRUE(compiled.is_ok());

    std::vector<Tensor3<Fixed16>> inputs;
    for (u64 s = 0; s < 9; ++s)
      inputs.push_back(
          random_input<Fixed16>(net.layer(0).out_dims, 100 + s));
    const auto expected =
        sequential_outputs(net, compiled.value(), params, inputs);

    BackendGuard guard;
    for (const char* backend : {"scalar", "auto"}) {
      ASSERT_TRUE(simd::select_backend(backend));
      for (i64 width : {i64{1}, i64{4}, i64{16}}) {
        SCOPED_TRACE(std::string(backend) + " pool width " +
                     std::to_string(width));
        PoolWidth pool(width);
        func::FuncExecutor exec(net, compiled.value(), AcceleratorConfig{});
        exec.load_params(params);
        // Batch sizes 9 (ragged vs the 8-wide column block), then 3
        // (smaller re-batch on warm state), then 1 (degenerate).
        for (std::size_t lo : {std::size_t{0}, std::size_t{6},
                               std::size_t{8}}) {
          std::vector<const Tensor3<Fixed16>*> ptrs;
          for (std::size_t i = lo; i < inputs.size(); ++i)
            ptrs.push_back(&inputs[i]);
          const auto results = exec.infer_batch(ptrs);
          ASSERT_EQ(results.size(), ptrs.size());
          for (std::size_t i = 0; i < ptrs.size(); ++i)
            EXPECT_TRUE(test::tensors_equal(expected[lo + i],
                                            results[i].final_output))
                << "slot " << i << " of batch starting at " << lo;
        }
      }
    }
  }
}

TEST(BatchExec, BadInputFailsOnlyItsSlot) {
  const Network net = batch_exec_net();
  const auto params = init_net_params<Fixed16>(net, 7);
  auto compiled =
      compile_network(net, Policy::kAdaptive2, AcceleratorConfig{});
  ASSERT_TRUE(compiled.is_ok());

  std::vector<Tensor3<Fixed16>> inputs;
  for (u64 s = 0; s < 3; ++s)
    inputs.push_back(random_input<Fixed16>(net.layer(0).out_dims, 50 + s));
  const auto expected =
      sequential_outputs(net, compiled.value(), params,
                         {inputs[0], inputs[2]});

  func::FuncExecutor exec(net, compiled.value(), AcceleratorConfig{});
  exec.load_params(params);
  const Tensor3<Fixed16> wrong({1, 2, 2});

  // With statuses: the malformed middle slot fails alone.
  std::vector<Status> statuses;
  const auto results =
      exec.infer_batch({&inputs[0], &wrong, &inputs[2]}, &statuses);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_TRUE(statuses[0].is_ok());
  EXPECT_FALSE(statuses[1].is_ok());
  EXPECT_TRUE(statuses[2].is_ok());
  EXPECT_TRUE(test::tensors_equal(expected[0], results[0].final_output));
  EXPECT_TRUE(test::tensors_equal(expected[1], results[2].final_output));
  EXPECT_TRUE(results[1].final_output.empty());

  // Without statuses: historical contract — the whole call throws.
  EXPECT_THROW(exec.infer_batch({&inputs[0], &wrong}), CheckError);
}

TEST(BatchExec, WarmBatchesAllocateOnlyTheResults) {
  // The bill covers the executor alone, so the layers run on one lane: a
  // fanned-out layer also allocates the pool's task queue nodes and each
  // worker's first-use scratch, whose counts depend on scheduling.
  PoolWidth serial(1);
  const Network net = batch_exec_net();
  const auto params = init_net_params<Fixed16>(net, 11);
  auto compiled =
      compile_network(net, Policy::kAdaptive2, AcceleratorConfig{});
  ASSERT_TRUE(compiled.is_ok());

  func::FuncExecutor exec(net, compiled.value(), AcceleratorConfig{});
  exec.load_params(params);
  std::vector<Tensor3<Fixed16>> inputs;
  for (u64 s = 0; s < 4; ++s)
    inputs.push_back(random_input<Fixed16>(net.layer(0).out_dims, 60 + s));
  std::vector<const Tensor3<Fixed16>*> ptrs;
  for (const auto& in : inputs) ptrs.push_back(&in);

  // Two warm-up calls size every resident buffer.
  exec.infer_batch(ptrs);
  exec.infer_batch(ptrs);
  const i64 growths_warm = exec.scratch_growths();

  const long long before_a = g_news.load();
  exec.infer_batch(ptrs);
  const long long cost_a = g_news.load() - before_a;
  const long long before_b = g_news.load();
  exec.infer_batch(ptrs);
  const long long cost_b = g_news.load() - before_b;

  // No resident buffer regrew, and the per-call allocation bill is
  // exactly reproducible — i.e. only the returned SimResults.
  EXPECT_EQ(exec.scratch_growths(), growths_warm);
  EXPECT_EQ(cost_a, cost_b);
}

// run_many is run_batches over batches of one, so both are held to an
// independent anchor: sequential Session::infer on one session. One
// Engine serves the net at both tiers through the same ragged partition.
TEST(EngineBatches, RunBatchesMatchesRunManyAndIsRaggedSafe) {
  const Network net = batch_exec_net();
  const auto params = init_net_params<Fixed16>(net, 13);
  std::vector<Tensor3<Fixed16>> inputs;
  for (u64 s = 0; s < 5; ++s)
    inputs.push_back(random_input<Fixed16>(net.layer(0).out_dims, 80 + s));

  engine::Engine eng{AcceleratorConfig{}};
  std::vector<SimResult> expected;
  {
    auto session = eng.open_session(net, Policy::kAdaptive2, params,
                                    Fidelity::kFunctional);
    for (const auto& input : inputs) expected.push_back(session->infer(input));
  }
  const auto expect_matches = [&](const std::vector<SimResult>& got) {
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_TRUE(test::tensors_equal(expected[i].final_output,
                                      got[i].final_output))
          << "request " << i;
  };

  engine::ServeStats stats;
  for (Fidelity tier : {Fidelity::kFunctional, Fidelity::kCycle}) {
    for (i64 jobs : {1, 4}) {
      for (i64 width : {1, 4}) {
        SCOPED_TRACE(std::string(fidelity_name(tier)) + " jobs=" +
                     std::to_string(jobs) + " pool width " +
                     std::to_string(width));
        PoolWidth pool(width);
        expect_matches(eng.run_batches(net, Policy::kAdaptive2, params,
                                       inputs, {{0, 1, 2}, {3, 4}}, jobs,
                                       &stats, tier));
        expect_matches(eng.run_many(net, Policy::kAdaptive2, params, inputs,
                                    jobs, &stats, tier));
      }
    }
  }
}

TEST(EngineBatches, PartitionIsValidated) {
  const Network net = zoo::tiny_cnn();
  const auto params = init_net_params<Fixed16>(net, 1);
  std::vector<Tensor3<Fixed16>> inputs;
  for (u64 s = 0; s < 3; ++s)
    inputs.push_back(random_input<Fixed16>(net.layer(0).out_dims, s));

  engine::Engine eng{AcceleratorConfig{}};
  const auto run = [&](std::vector<std::vector<i64>> batches) {
    return eng.run_batches(net, Policy::kAdaptive2, params, inputs,
                           batches, 1, nullptr, Fidelity::kFunctional);
  };
  EXPECT_THROW(run({{0, 1}}), CheckError);           // index 2 unserved
  EXPECT_THROW(run({{0, 1, 2}, {1}}), CheckError);   // 1 served twice
  EXPECT_THROW(run({{0, 1, 2}, {}}), CheckError);    // empty batch
  EXPECT_THROW(run({{0, 1, 3}}), CheckError);        // out of range
  EXPECT_EQ(run({{2, 0}, {1}}).size(), 3u);          // any order is fine
}

// --- FC under the filter-sum contract -------------------------------------

// FC weight rows of length n >= 24 at the contract's edges, each with
// whether it passes simd::filter_sum_ok: |w| summing to 65535 and to 65536
// inside one madd lane (elements 6 and 7 of the first two 16-element
// groups), a lone -32768 among weights of 3, and that -32768 paired with
// another in one madd pair. A row past the bound keeps its mass in one
// int32 lane, so the fast kernel would wrap on fc_edge_data's column 0.
struct FcEdgeRow {
  std::string name;
  std::vector<std::int16_t> w;
  bool fast;
};

std::vector<FcEdgeRow> fc_threshold_rows(i64 n) {
  std::vector<FcEdgeRow> rows;
  for (const i64 total : {65535, 65536}) {
    std::vector<std::int16_t> w(static_cast<std::size_t>(n), 0);
    for (const std::size_t e : {6, 7, 22, 23}) w[e] = -16384;
    if (total == 65535) w[23] = -16383;
    rows.push_back({"sum " + std::to_string(total), w, total == 65535});
  }
  return rows;
}

std::vector<FcEdgeRow> fc_min_weight_rows(i64 n) {
  std::vector<FcEdgeRow> rows;
  std::vector<std::int16_t> lone(static_cast<std::size_t>(n), 3);
  lone[5] = -32768;
  rows.push_back({"lone -32768", lone, true});
  lone[4] = -32768;
  rows.push_back({"-32768 pair", lone, false});
  return rows;
}

std::vector<FcEdgeRow> fc_edge_rows(i64 n) {
  std::vector<FcEdgeRow> rows = fc_threshold_rows(n);
  for (FcEdgeRow& e : fc_min_weight_rows(n)) rows.push_back(std::move(e));
  return rows;
}

// Data column c of length n for weight row w, on the int16 extremes:
// column 0 takes each element's sign from its weight (every product at
// its largest positive value), column 1 alternates INT16_MAX, INT16_MIN,
// INT16_MAX by thirds, column 2 is all INT16_MIN.
std::int16_t fc_edge_data(const std::vector<std::int16_t>& w, i64 c, i64 i) {
  constexpr std::int16_t kMin = std::numeric_limits<std::int16_t>::min();
  constexpr std::int16_t kMax = std::numeric_limits<std::int16_t>::max();
  if (c % 3 == 0) return w[static_cast<std::size_t>(i)] < 0 ? kMin : kMax;
  if (c % 3 == 1) return i % 3 == 1 ? kMin : kMax;
  return kMin;
}

// The kernels on the edge rows that make(n) builds, at row lengths with a
// scalar tail, one to three columns and one to three rows: filter_sum_ok
// decides each row as stated, dot_s16_mrhs matches the int64 dot on every
// row that passes, and dot_s16_mrhs_exact on every row, on every backend.
void expect_edge_rows_take_their_kernel(
    std::vector<FcEdgeRow> (*make)(i64)) {
  BackendGuard guard;
  for (const i64 n : {i64{105}, i64{16 * 17 + 7}}) {
    const std::vector<FcEdgeRow> edges = make(n);
    // Each edge row alone, then the fast ones stacked over rows of 1s to
    // three rows (the 2x2 tile and a leftover row).
    std::vector<std::vector<std::int16_t>> panels;
    std::vector<std::int16_t> stacked;
    for (const FcEdgeRow& e : edges) {
      SCOPED_TRACE(e.name + " n=" + std::to_string(n));
      ASSERT_EQ(simd::filter_sum_ok(e.w.data(), n, 1, n), e.fast);
      panels.push_back(e.w);
      if (e.fast) stacked.insert(stacked.end(), e.w.begin(), e.w.end());
    }
    stacked.resize(static_cast<std::size_t>(3 * n), 1);
    ASSERT_TRUE(simd::filter_sum_ok(stacked.data(), n, 3, n));
    panels.push_back(stacked);
    for (const std::vector<std::int16_t>& w : panels) {
      const i64 rows = static_cast<i64>(w.size()) / n;
      const bool fast = simd::filter_sum_ok(w.data(), n, rows, n);
      for (const i64 cols : {1, 2, 3}) {
        SCOPED_TRACE("n=" + std::to_string(n) + " rows=" +
                     std::to_string(rows) + " cols=" + std::to_string(cols));
        std::vector<std::int16_t> data(static_cast<std::size_t>(cols * n));
        for (i64 c = 0; c < cols; ++c)
          for (i64 i = 0; i < n; ++i)
            data[static_cast<std::size_t>(c * n + i)] =
                fc_edge_data(w, c, i);
        std::vector<Fixed16::acc_t> want(static_cast<std::size_t>(rows * cols));
        for (i64 r = 0; r < rows; ++r)
          for (i64 c = 0; c < cols; ++c)
            for (i64 i = 0; i < n; ++i)
              want[static_cast<std::size_t>(r * cols + c)] +=
                  Fixed16::acc_t{data[static_cast<std::size_t>(c * n + i)]} *
                  w[static_cast<std::size_t>(r * n + i)];
        for (auto b : simd::supported_backends()) {
          simd::select_backend(b);
          std::vector<Fixed16::acc_t> got(want.size(), -1);
          simd::dot_s16_mrhs_exact(data.data(), n, cols, w.data(), n, rows,
                                   n, got.data(), cols);
          EXPECT_EQ(got, want) << simd::backend_name(b) << " exact";
          if (!fast) continue;
          std::fill(got.begin(), got.end(), -1);
          simd::dot_s16_mrhs(data.data(), n, cols, w.data(), n, rows, n,
                             got.data(), cols);
          EXPECT_EQ(got, want) << simd::backend_name(b) << " fast";
        }
      }
    }
  }
}

// The bound is exact: |w| summing to 65535 in one madd lane takes the fast
// kernel and 65536 does not.
TEST(FcFilterSum, BoundIsExactAtTheThreshold) {
  expect_edge_rows_take_their_kernel(fc_threshold_rows);
}

// A lone -32768 among small weights stays on the fast kernel; a second one
// in the same madd pair breaks the contract.
TEST(FcFilterSum, LoneMinWeightStaysOnTheFastKernel) {
  expect_edge_rows_take_their_kernel(fc_min_weight_rows);
}

// Both tiers on an input -> FC net whose middle row is each edge row in
// turn (rows 0 and 2 keep their fan-in-scaled init values): the layer
// packs fast exactly when the edge row passes the contract, and the
// functional tier at batches of three and two images (odd and even column
// counts) and the cycle tier both match the reference executor on every
// backend. The FC reads 105 inputs, a 9-element scalar tail for the
// cycle tier's unpadded dots, and the images are fc_edge_data's columns.
TEST(FcFilterSum, BothTiersMatchReferenceOnEdgeRows) {
  Network net("fc_edge");
  const LayerId fc = net.add_fc(net.add_input({3, 5, 7}), "fc",
                                {.dout = 3, .relu = false});
  ASSERT_TRUE(net.validate().is_ok());
  const i64 n = 105;
  auto compiled =
      compile_network(net, Policy::kAdaptive2, AcceleratorConfig{});
  ASSERT_TRUE(compiled.is_ok());
  BackendGuard guard;
  for (const FcEdgeRow& e : fc_edge_rows(n)) {
    SCOPED_TRACE(e.name);
    auto params = init_net_params<Fixed16>(net, 5);
    auto& w = params.per_layer[static_cast<std::size_t>(fc)].weights;
    for (i64 i = 0; i < n; ++i)
      w.storage()[static_cast<std::size_t>(n + i)] =
          Fixed16::from_raw(e.w[static_cast<std::size_t>(i)]);
    func::FuncExecutor func(net, compiled.value(), AcceleratorConfig{});
    func.load_params(params);
    EXPECT_EQ((*func.packed_params())[static_cast<std::size_t>(fc)].exact,
              !e.fast);
    std::vector<Tensor3<Fixed16>> inputs;
    std::vector<Tensor3<Fixed16>> want;
    RefExecutor<Fixed16> ref(net, params);
    for (i64 c = 0; c < 3; ++c) {
      Tensor3<Fixed16> t(net.layer(0).out_dims);
      for (i64 i = 0; i < n; ++i)
        t.storage()[static_cast<std::size_t>(i)] =
            Fixed16::from_raw(fc_edge_data(e.w, c, i));
      want.push_back(ref.run(t));
      inputs.push_back(std::move(t));
    }
    for (auto b : simd::supported_backends()) {
      SCOPED_TRACE(simd::backend_name(b));
      simd::select_backend(b);
      for (const std::size_t batch : {std::size_t{3}, std::size_t{2}}) {
        std::vector<const Tensor3<Fixed16>*> ptrs;
        for (std::size_t i = 0; i < batch; ++i) ptrs.push_back(&inputs[i]);
        const auto got = func.infer_batch(ptrs);
        for (std::size_t i = 0; i < batch; ++i)
          EXPECT_TRUE(test::tensors_equal(want[i], got[i].final_output))
              << "functional image " << i << " of " << batch;
      }
      SimExecutor sim(net, compiled.value(), AcceleratorConfig{});
      for (std::size_t i = 0; i < inputs.size(); ++i)
        EXPECT_TRUE(test::tensors_equal(
            want[i], sim.run(inputs[i], params).final_output))
            << "cycle image " << i;
    }
  }
}

TEST(MrhsKernels, AllTiersMatchScalarReferenceAtOddShapes) {
  Rng rng(99);
  BackendGuard guard;
  // Strides deliberately exceed n to prove the kernels honor them.
  for (i64 n : {i64{5}, i64{16}, i64{37}, i64{256}, i64{363}}) {
    const i64 ds = n + 3, ws = n + 7;
    const i64 cols = 3, rows = 5;
    std::vector<std::int16_t> data(static_cast<std::size_t>(cols * ds));
    std::vector<std::int16_t> w(static_cast<std::size_t>(rows * ws));
    for (auto& v : data)
      v = static_cast<std::int16_t>(
          static_cast<int>(rng.next_u64() % 65536) - 32768);
    for (auto& v : w)
      v = static_cast<std::int16_t>(
          static_cast<int>(rng.next_u64() % 512) - 256);
    std::vector<Fixed16::acc_t> want(static_cast<std::size_t>(rows * cols));
    for (i64 r = 0; r < rows; ++r)
      for (i64 c = 0; c < cols; ++c) {
        Fixed16::acc_t acc = 0;
        for (i64 i = 0; i < n; ++i)
          acc += static_cast<Fixed16::acc_t>(data[c * ds + i]) * w[r * ws + i];
        want[static_cast<std::size_t>(r * cols + c)] = acc;
      }
    const bool fast = simd::filter_sum_ok(w.data(), ws, rows, n);
    for (auto b : simd::supported_backends()) {
      simd::select_backend(b);
      SCOPED_TRACE("n=" + std::to_string(n) + " backend " +
                   simd::backend_name(b));
      std::vector<Fixed16::acc_t> got(want.size());
      simd::dot_s16_mrhs_exact(data.data(), ds, cols, w.data(), ws, rows, n,
                               got.data(), cols);
      EXPECT_EQ(got, want) << "exact";
      if (fast) {
        std::fill(got.begin(), got.end(), 0);
        simd::dot_s16_mrhs(data.data(), ds, cols, w.data(), ws, rows, n,
                           got.data(), cols);
        EXPECT_EQ(got, want) << "fast";
      }
    }
  }
}

}  // namespace
}  // namespace cbrain
