// THE load-bearing property test of this reproduction (DESIGN.md §5):
// for a sweep of convolution geometries and every parallelization scheme,
// the cycle-level simulator's output is bit-identical to the fixed-point
// reference executor, and its event counters are exactly the analytical
// model's. This proves Algorithm 1 (kernel partitioning), the improved
// inter-kernel accumulation (§4.2.2), the data-layout planning (§4.2.3)
// and the tiler are *correct*, not merely fast.
#include <algorithm>

#include "cbrain/common/thread_pool.hpp"
#include "cbrain/obs/chrome_trace.hpp"
#include "cbrain/obs/tracer.hpp"
#include "cbrain/simd/simd.hpp"
#include "support.hpp"

namespace cbrain::test {
namespace {

struct ConvCase {
  std::string name;
  MapDims in;
  ConvParams conv;
};

// Geometries chosen to hit every scheme branch and alignment edge:
// k==s, k>s dividing and non-dividing, k<s, 1x1, kernels larger than Tin,
// Din below/above Tin, non-multiple lane groups, grouped conv.
const ConvCase kCases[] = {
    {"alexconv1ish", {3, 19, 19}, {.dout = 8, .k = 5, .stride = 2}},
    {"pad1_k3", {3, 12, 12}, {.dout = 8, .k = 3, .stride = 1, .pad = 1}},
    {"deep_k3", {16, 8, 8}, {.dout = 20, .k = 3, .stride = 1, .pad = 1}},
    {"k_eq_s", {4, 12, 12}, {.dout = 6, .k = 2, .stride = 2}},
    {"k_eq_s3", {5, 9, 9}, {.dout = 7, .k = 3, .stride = 3}},
    {"one_by_one", {24, 6, 6}, {.dout = 10, .k = 1, .stride = 1}},
    {"k_gt_tin", {2, 17, 17}, {.dout = 5, .k = 7, .stride = 2}},
    {"k4_s3", {3, 13, 13}, {.dout = 6, .k = 4, .stride = 3}},
    {"k_lt_s", {6, 13, 13}, {.dout = 8, .k = 2, .stride = 3}},
    {"grouped", {4, 10, 10}, {.dout = 8, .k = 3, .stride = 1, .pad = 1,
                              .groups = 2}},
    {"no_relu", {3, 9, 9}, {.dout = 4, .k = 3, .stride = 2, .relu = false}},
    {"tall_kernel", {1, 23, 23}, {.dout = 3, .k = 11, .stride = 4}},
    {"rectangular", {3, 11, 17}, {.dout = 6, .k = 3, .stride = 2}},
    {"wide_input", {2, 7, 21}, {.dout = 5, .k = 5, .stride = 1, .pad = 2}},
};

const Policy kPolicies[] = {Policy::kFixedInter, Policy::kFixedIntra,
                            Policy::kFixedPartition, Policy::kAdaptive1,
                            Policy::kAdaptive2};

class ConvSweep
    : public ::testing::TestWithParam<std::tuple<int, Policy, bool>> {};

TEST_P(ConvSweep, SimMatchesRefAndModel) {
  const auto [case_idx, policy, tiny_buffers] = GetParam();
  const ConvCase& cc = kCases[case_idx];
  const Network net = zoo::single_conv(cc.in, cc.conv, cc.name);
  // Tin=4/Tout=4 with 4 KiB buffers forces band/din/dout tiling paths;
  // the default-size variant exercises the single-tile fast path.
  AcceleratorConfig config = tiny_config(4, 4);
  if (!tiny_buffers) config = AcceleratorConfig::with_pe(4, 4);

  const RunResult r = run_all(net, policy, config);
  const LayerId conv_id = net.conv_layer_ids().front();

  // 1. Functional equivalence: bit-exact against the golden executor.
  EXPECT_TRUE(tensors_equal(r.ref_out, r.sim.final_output));

  // 2. Counter equivalence: simulator == analytical model, per layer.
  expect_counters_match(r.sim.layer_total(conv_id),
                        r.model.layer(conv_id).counters, cc.name);

  // 3. Work conservation: active multiplier slots == the layer's MACs
  // plus partition's zero-padding overhead (never less).
  const i64 macs = net.layer(conv_id).macs();
  EXPECT_GE(r.model.layer(conv_id).counters.mul_ops, macs);
}

INSTANTIATE_TEST_SUITE_P(
    AllCases, ConvSweep,
    ::testing::Combine(::testing::Range(0, static_cast<int>(std::size(kCases))),
                       ::testing::ValuesIn(kPolicies),
                       ::testing::Bool()),
    [](const auto& info) {
      std::string n = kCases[std::get<0>(info.param)].name;
      n += "_";
      n += policy_name(std::get<1>(info.param));
      n += std::get<2>(info.param) ? "_tinybuf" : "_bigbuf";
      for (auto& ch : n)
        if (ch == '-' || ch == '+') ch = '_';
      return n;
    });

// Whole-network end-to-end: conv + pool + fc + softmax pipelines, DAG
// layout planning and host ops all in one pass.
class WholeNet : public ::testing::TestWithParam<Policy> {};

TEST_P(WholeNet, TinyCnnBitExact) {
  const Network net = zoo::tiny_cnn();
  const RunResult r = run_all(net, GetParam(), tiny_config(4, 4));
  EXPECT_TRUE(tensors_equal(r.ref_out, r.sim.final_output));
  for (const Layer& l : net.layers()) {
    if (l.kind == LayerKind::kInput) continue;
    expect_counters_match(r.sim.layer_total(l.id),
                          r.model.layer(l.id).counters, l.name);
  }
}

TEST_P(WholeNet, SchemeMixBitExact) {
  const Network net = zoo::scheme_mix_cnn();
  const RunResult r = run_all(net, GetParam(), tiny_config(4, 4));
  EXPECT_TRUE(tensors_equal(r.ref_out, r.sim.final_output));
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, WholeNet, ::testing::ValuesIn(kPolicies),
                         [](const auto& info) {
                           std::string n = policy_name(info.param);
                           for (auto& ch : n)
                             if (ch == '-' || ch == '+') ch = '_';
                           return n;
                         });

// Every intermediate cube the simulator materializes equals the reference
// executor's corresponding activation (layer-by-layer localization of any
// failure the end-to-end checks would only see at the output).
TEST(SimIntermediates, TinyCnnLayerByLayer) {
  const Network net = zoo::tiny_cnn();
  const AcceleratorConfig config = tiny_config(4, 4);
  auto params = init_net_params<Fixed16>(net, 7);
  auto input = random_input<Fixed16>(net.layer(0).out_dims, 99);

  RefExecutor<Fixed16> ref(net, params);
  ref.run(input);

  auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  SimExecutor sim(net, compiled.value(), config);
  sim.run(input, params);

  for (const Layer& l : net.layers()) {
    if (l.kind == LayerKind::kInput || l.inputs.empty()) continue;
    SCOPED_TRACE(l.name);
    // What the layer consumed == what its producer(s) produced in ref.
    const Tensor3<Fixed16> consumed = sim.read_input_cube(l.id);
    const Tensor3<Fixed16>& expected =
        l.inputs.size() == 1
            ? ref.output(l.inputs[0])
            : ref.output(l.id);  // concat inputs land pre-assembled
    EXPECT_TRUE(tensors_equal(expected, consumed));
  }
}

// A conv tile whose weights break the filter-sum contract must take the
// exact kernel. Every weight and every input word is -32768, so each
// madd pair sums to 2^31 and wraps int32: a tile wrongly sent to
// conv_tile_s16 would finalize a wrapped sum (an even number of wrapped
// pairs per lane cancels to 0) where the exact sum saturates. Every
// policy, with and without din chunking, must match the reference
// executor under every supported backend.
TEST(SimConvTile, ContractBreakingBlockTakesExactKernel) {
  struct RestoreBackend {
    simd::Backend saved = simd::active_backend();
    ~RestoreBackend() { simd::select_backend(saved); }
  } restore;
  const Network net = zoo::single_conv(
      {16, 6, 6}, {.dout = 6, .k = 4, .stride = 1}, "extreme");
  auto params = init_net_params<Fixed16>(net, 3);
  auto& weights =
      params.per_layer[static_cast<std::size_t>(net.conv_layer_ids().front())]
          .weights;
  std::fill(weights.storage().begin(), weights.storage().end(),
            Fixed16::from_raw(-32768));
  const i64 n = 16 * 4 * 4;
  std::vector<std::int16_t> row(static_cast<std::size_t>(n), -32768);
  ASSERT_FALSE(simd::filter_sum_ok(row.data(), n, 1, n));
  Tensor3<Fixed16> input(net.layer(0).out_dims);
  input.fill(Fixed16::from_raw(-32768));
  RefExecutor<Fixed16> ref(net, params);
  const Tensor3<Fixed16> want = ref.run(input);

  for (const AcceleratorConfig& config :
       {AcceleratorConfig::with_pe(16, 16), tiny_config(4, 4)})
    for (const Policy policy : kPolicies) {
      SCOPED_TRACE(std::string(policy_name(policy)) + " tin " +
                   std::to_string(config.tin));
      auto compiled = compile_network(net, policy, config);
      ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
      for (const simd::Backend backend : simd::supported_backends()) {
        simd::select_backend(backend);
        SimExecutor sim(net, compiled.value(), config);
        EXPECT_TRUE(tensors_equal(want, sim.run(input, params).final_output))
            << simd::backend_name(backend);
      }
    }
}

// A conv chain with every stride 1-4 and a dilation-2 layer, each layer
// with an odd input depth (the staged zero partner) and an output depth
// off the tile kernel's six-output block.
Network every_scheme_net() {
  Network net("every_scheme");
  LayerId x = net.add_input({5, 67, 67});
  x = net.add_conv(x, "c1_s1", {.dout = 7, .k = 5, .stride = 1, .pad = 2});
  x = net.add_conv(x, "c2_s2", {.dout = 11, .k = 3, .stride = 2, .pad = 1});
  x = net.add_conv(x, "c3_d2",
                   {.dout = 13, .k = 3, .stride = 1, .pad = 2, .dilation = 2});
  x = net.add_conv(x, "c4_s3", {.dout = 9, .k = 5, .stride = 3, .pad = 1});
  net.add_conv(x, "c5_s4",
               {.dout = 8, .k = 4, .stride = 4, .pad = 3, .relu = false});
  return net;
}

// The cycle tier's conv value pass (staged band, packed weights, the tile
// kernel in raw-sum mode) on live He-uniform data under every scheme:
// five rotated scheme lists put each scheme on each layer, covering both
// band orders (depth-major for the inter schemes, spatial-major for the
// rest), once under the paper's buffers and once under a tiny config
// that chunks the input depth and bands the output rows. Under every
// supported backend, every layer's consumed cube and the final output
// equal the reference executor's, and every conv output is at least 10%
// nonzero, so the comparison cannot pass on dead data.
TEST(SimConvTile, EverySchemeMatchesReferenceLayerByLayer) {
  struct RestoreBackend {
    simd::Backend saved = simd::active_backend();
    ~RestoreBackend() { simd::select_backend(saved); }
  } restore;
  const Network net = every_scheme_net();
  const auto params = he_uniform_params(net, 11);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 12);
  RefExecutor<Fixed16> ref(net, params);
  ref.run(input);
  const std::vector<LayerId> convs = net.conv_layer_ids();
  for (const LayerId id : convs) {
    const Tensor3<Fixed16>& out = ref.output(id);
    const auto nonzero =
        std::count_if(out.storage().begin(), out.storage().end(),
                      [](Fixed16 v) { return v.raw() != 0; });
    EXPECT_GE(nonzero * 10, out.size()) << net.layer(id).name;
  }

  constexpr Scheme kSchemes[] = {Scheme::kInter, Scheme::kInterImproved,
                                 Scheme::kIntraUnroll, Scheme::kIntraSliding,
                                 Scheme::kPartition};
  bool depth_major = false, spatial_major = false, chunked = false,
       banded = false;
  for (const AcceleratorConfig& config :
       {AcceleratorConfig::paper_16_16(), tiny_config(4, 4)})
    for (std::size_t r = 0; r < std::size(kSchemes); ++r) {
      std::vector<Scheme> schemes(static_cast<std::size_t>(net.size()),
                                  Scheme::kInter);
      std::string label = "tin " + std::to_string(config.tin) + ":";
      for (std::size_t i = 0; i < convs.size(); ++i) {
        const Scheme s = kSchemes[(i + r) % std::size(kSchemes)];
        schemes[static_cast<std::size_t>(convs[i])] = s;
        label += std::string(" ") + scheme_name(s);
      }
      SCOPED_TRACE(label);
      auto compiled = compile_network(net, schemes, config, Policy::kAdaptive2);
      ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
      for (const Instruction& instr : compiled.value().program.instructions())
        if (const auto* c = std::get_if<ConvTileInstr>(&instr)) {
          (c->band_order == DataOrder::kDepthMajor ? depth_major
                                                   : spatial_major) = true;
          chunked = chunked || !c->last_din_chunk;
          banded = banded || c->out_row0 > 0;
        }
      SimExecutor sim(net, compiled.value(), config);
      sim.load_params(params);
      for (const simd::Backend backend : simd::supported_backends()) {
        SCOPED_TRACE(simd::backend_name(backend));
        simd::select_backend(backend);
        const SimResult result = sim.infer(input);
        EXPECT_TRUE(tensors_equal(ref.output(convs.back()),
                                  result.final_output));
        for (const Layer& l : net.layers()) {
          if (l.kind == LayerKind::kInput) continue;
          EXPECT_TRUE(tensors_equal(ref.output(l.inputs[0]),
                                    sim.read_input_cube(l.id)))
              << l.name;
        }
      }
    }
  EXPECT_TRUE(depth_major && spatial_major);
  EXPECT_TRUE(chunked && banded);
}

// Everything one cycle-tier inference shows: the final output, then
// every layer's consumed cube in layer order, every layer's counters and
// the cycle trace.
struct SimView {
  std::vector<Tensor3<Fixed16>> cubes;
  std::string counters;
  std::string trace;
};

SimView infer_view(const Network& net, SimExecutor& sim,
                   const Tensor3<Fixed16>& input) {
  obs::Tracer& tr = obs::Tracer::global();
  (void)tr.drain();
  tr.enable();
  const SimResult r = sim.infer(input);
  tr.disable();
  SimView v;
  v.cubes.push_back(r.final_output);
  for (const Layer& l : net.layers())
    if (l.kind != LayerKind::kInput) v.cubes.push_back(sim.read_input_cube(l.id));
  for (const TrafficCounters& c : r.per_layer) v.counters += counters_line(c) + "\n";
  v.trace = obs::to_chrome_trace_json(tr.drain());
  return v;
}

// One inference with no injector (weights the scan proved safe read in
// place) and one under an attached zero-rate injector (every load
// copied, every hook run) must show the same bytes.
void expect_copy_path_identical(const Network& net, SimExecutor& sim,
                                const Tensor3<Fixed16>& input) {
  const SimView fast = infer_view(net, sim, input);
  FaultInjector zero_rate{FaultConfig{}};
  sim.attach_fault(&zero_rate);
  const SimView copy = infer_view(net, sim, input);
  sim.attach_fault(nullptr);
  ASSERT_EQ(fast.cubes.size(), copy.cubes.size());
  for (std::size_t i = 0; i < fast.cubes.size(); ++i)
    EXPECT_TRUE(tensors_equal(fast.cubes[i], copy.cubes[i]))
        << (i == 0 ? "final output" : "consumed cube " + std::to_string(i));
  EXPECT_EQ(fast.counters, copy.counters) << "per-layer counters";
  EXPECT_EQ(fast.trace, copy.trace) << "cycle trace";
}

LayerId layer_named(const Network& net, const std::string& name) {
  for (const Layer& l : net.layers())
    if (l.name == name) return l.id;
  ADD_FAILURE() << "no layer " << name;
  return 0;
}

i64 fc_tiles(const Program& program) {
  return std::count_if(
      program.instructions().begin(), program.instructions().end(),
      [](const Instruction& i) { return std::holds_alternative<FcTileInstr>(i); });
}

// FC weights read in place from DRAM are the copied weights: AlexNet on
// live He-uniform weights, under the paper config (one din chunk, fc6-fc8
// lane groups across the pool) and under a 32 KiB InOut buffer that
// din-chunks every FC layer into strided weight loads, equals the copy
// path under every supported backend, serially and on the pool.
TEST(SimFcInPlace, MatchesCopyPath) {
  struct Restore {
    simd::Backend backend = simd::active_backend();
    i64 jobs = parallel::default_jobs();
    ~Restore() {
      simd::select_backend(backend);
      parallel::set_default_jobs(jobs);
    }
  } restore;
  const Network net = zoo::alexnet();
  const auto params = he_uniform_params(net, 5);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 6);
  AcceleratorConfig small = AcceleratorConfig::paper_16_16();
  small.inout_buf.size_bytes = 32 * 1024;

  for (const AcceleratorConfig& config :
       {AcceleratorConfig::paper_16_16(), small}) {
    SCOPED_TRACE("inout " + std::to_string(config.inout_buf.size_bytes));
    auto compiled = compile_network(net, Policy::kAdaptive2, config);
    ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
    const Program& program = compiled.value().program;
    SimExecutor sim(net, compiled.value(), config);
    EXPECT_EQ(sim.in_place_loads(), fc_tiles(program));
    const bool chunked = std::any_of(
        program.instructions().begin(), program.instructions().end(),
        [](const Instruction& i) {
          const auto* fc = std::get_if<FcTileInstr>(&i);
          return fc != nullptr && !fc->last_din_chunk;
        });
    EXPECT_EQ(chunked, config.inout_buf.size_bytes == small.inout_buf.size_bytes);
    sim.load_params(params);
    for (const simd::Backend backend : simd::supported_backends())
      for (const i64 jobs : {i64{1}, i64{4}}) {
        SCOPED_TRACE(std::string(simd::backend_name(backend)) + " jobs " +
                     std::to_string(jobs));
        simd::select_backend(backend);
        parallel::set_default_jobs(jobs);
        expect_copy_path_identical(net, sim, input);
      }

    // The FC layers are live: at least 30% of fc7's outputs are nonzero.
    (void)sim.infer(input);
    const Tensor3<Fixed16> fc7 = sim.read_input_cube(layer_named(net, "fc8"));
    const auto nonzero = std::count_if(
        fc7.storage().begin(), fc7.storage().end(),
        [](Fixed16 v) { return v.raw() != 0; });
    EXPECT_GE(nonzero * 10, fc7.size() * 3) << nonzero << " of " << fc7.size();
  }
}

// `compiled` with `extra` inserted right after instruction `after`.
CompiledNetwork with_inserted(const Network& net,
                              const CompiledNetwork& compiled, i64 after,
                              const Instruction& extra) {
  CompiledNetwork out = compiled;
  Program program;
  for (const Layer& l : net.layers()) {
    const auto [begin, end] = compiled.program.layer_range(l.id);
    program.begin_layer(l.id);
    for (i64 i = begin; i < end; ++i) {
      program.push(compiled.program.at(i));
      if (i == after) program.push(extra);
    }
    program.end_layer(l.id);
  }
  out.program = std::move(program);
  return out;
}

// A load stays in DRAM only while no other tile reads its window before
// a later load rewrites it. Two hand-edited tiny_cnn programs re-read
// fc3's weight window right after its FC tile, with no load between:
// once by a second copy of that FC tile (an idempotent first-chunk
// store) and once by a copy of a conv2 tile. fc3's load must then be
// copied (fc4's alone stays in place), and each run must match the
// reference output and, cube for cube, the all-copy path.
TEST(SimFcInPlace, ReReadWindowTakesTheCopyPath) {
  const Network net = zoo::tiny_cnn();
  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  const auto params = he_uniform_params(net, 9);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, 10);
  const Tensor3<Fixed16> want = RefExecutor<Fixed16>(net, params).run(input);
  auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  const Program& program = compiled.value().program;
  ASSERT_EQ(SimExecutor(net, compiled.value(), config).in_place_loads(), 2);

  const auto first_of = [&](LayerId layer, auto tag) {
    const auto [begin, end] = program.layer_range(layer);
    for (i64 i = begin; i < end; ++i)
      if (std::holds_alternative<decltype(tag)>(program.at(i))) return i;
    return i64{-1};
  };
  const i64 fc3 = first_of(layer_named(net, "fc3"), FcTileInstr{});
  const i64 conv2 = first_of(layer_named(net, "conv2"), ConvTileInstr{});
  ASSERT_GE(fc3, 0);
  ASSERT_GE(conv2, 0);
  for (const i64 reread : {fc3, conv2}) {
    SCOPED_TRACE(reread == fc3 ? "second fc3 tile" : "conv2 tile");
    const CompiledNetwork edited =
        with_inserted(net, compiled.value(), fc3, program.at(reread));
    SimExecutor sim(net, edited, config);
    EXPECT_EQ(sim.in_place_loads(), 1);
    sim.load_params(params);
    EXPECT_TRUE(tensors_equal(want, sim.infer(input).final_output));
    expect_copy_path_identical(net, sim, input);
  }
}

}  // namespace
}  // namespace cbrain::test
