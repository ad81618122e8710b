// Modern-layer diversity (DESIGN.md §15): dilated and depthwise
// convolution plus residual eltwise-add joins, end to end. Every case
// holds the three-tier identity — golden reference, cycle simulator and
// functional tier produce bit-identical outputs — and the analytical
// model must agree with the simulator's accounting counter-for-counter,
// eltwise tiles included. Spec-parser round-trips, garbage-input Status
// errors and multi-consumer DAG bookkeeping ride along.
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cbrain/common/rng.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/compiler/verifier.hpp"
#include "cbrain/core/cbrain.hpp"
#include "cbrain/func/executor.hpp"
#include "cbrain/func/kernels.hpp"
#include "cbrain/nn/dot_export.hpp"
#include "cbrain/nn/spec_parser.hpp"
#include "cbrain/nn/workload.hpp"
#include "cbrain/ref/conv_ref.hpp"
#include "cbrain/simd/simd.hpp"
#include "support.hpp"

namespace cbrain::test {
namespace {

constexpr std::uint64_t kSeed = 2016;

// Runs ref, sim and func on `net` and asserts (a) bit-identical outputs
// across all three tiers and (b) exact model-vs-sim counter agreement on
// every layer the program contains.
void expect_three_tier_identity(const Network& net, Policy policy,
                                const AcceleratorConfig& config,
                                const NetParamsData<Fixed16>& params,
                                std::uint64_t seed = kSeed) {
  auto input = random_input<Fixed16>(net.layer(0).out_dims, seed ^ 0x55);

  RefExecutor<Fixed16> ref(net, params);
  const Tensor3<Fixed16> golden = ref.run(input);

  auto compiled = compile_network(net, policy, config);
  ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
  const VerifyReport vr = verify_program(net, compiled.value(), config);
  EXPECT_TRUE(vr.ok()) << vr.to_string();

  SimExecutor sim(net, compiled.value(), config);
  const SimResult s = sim.run(input, params);
  EXPECT_TRUE(tensors_equal(golden, s.final_output)) << "sim vs ref";

  func::FuncExecutor func(net, compiled.value(), config);
  func.load_params(params);
  const SimResult f = func.infer(input);
  EXPECT_TRUE(tensors_equal(golden, f.final_output)) << "func vs ref";

  ModelOptions opt;
  opt.include_fc = true;
  const NetworkModelResult m =
      model_network(net, compiled.value(), config, opt);
  for (const Layer& l : net.layers()) {
    if (l.kind == LayerKind::kInput || l.kind == LayerKind::kConcat)
      continue;
    expect_counters_match(s.layer_total(l.id), m.layer(l.id).counters,
                          l.name);
  }
}

void expect_three_tier_identity(const Network& net, Policy policy,
                                const AcceleratorConfig& config,
                                std::uint64_t seed = kSeed) {
  expect_three_tier_identity(net, policy, config,
                             init_net_params<Fixed16>(net, seed), seed);
}

// A toy residual block: conv -> conv(linear) joined with the identity
// shortcut, then a strided block with a 1x1 projection — both add kinds
// ResNet uses, at test scale.
Network residual_toy() {
  Network net("residual_toy");
  LayerId in = net.add_input({3, 12, 12});
  LayerId c0 = net.add_conv(in, "stem", {.dout = 6, .k = 3, .stride = 1,
                                         .pad = 1});
  LayerId c1 = net.add_conv(c0, "b1/conv1", {.dout = 6, .k = 3, .stride = 1,
                                             .pad = 1});
  LayerId c2 = net.add_conv(c1, "b1/conv2",
                            {.dout = 6, .k = 3, .stride = 1, .pad = 1,
                             .relu = false});
  LayerId j1 = net.add_eltwise_add(c2, c0, "b1/add", {.relu = true});
  LayerId c3 = net.add_conv(j1, "b2/conv1", {.dout = 8, .k = 3, .stride = 2,
                                             .pad = 1});
  LayerId c4 = net.add_conv(c3, "b2/conv2",
                            {.dout = 8, .k = 3, .stride = 1, .pad = 1,
                             .relu = false});
  LayerId pr = net.add_conv(j1, "b2/proj",
                            {.dout = 8, .k = 1, .stride = 2, .relu = false});
  LayerId j2 = net.add_eltwise_add(c4, pr, "b2/add", {.relu = true});
  LayerId fc = net.add_fc(j2, "fc", {.dout = 10, .relu = false});
  net.add_softmax(fc);
  return net;
}

// A MobileNet-style separable stack at test scale: depthwise 3x3 (s1 and
// s2) each followed by a pointwise 1x1.
Network depthwise_toy() {
  Network net("depthwise_toy");
  LayerId t = net.add_input({4, 12, 12});
  t = net.add_conv(t, "dw1", {.dout = 4, .k = 3, .stride = 1, .pad = 1,
                              .groups = 4});
  t = net.add_conv(t, "pw1", {.dout = 8, .k = 1, .stride = 1});
  t = net.add_conv(t, "dw2", {.dout = 8, .k = 3, .stride = 2, .pad = 1,
                              .groups = 8});
  t = net.add_conv(t, "pw2", {.dout = 6, .k = 1, .stride = 1});
  LayerId fc = net.add_fc(t, "fc", {.dout = 10, .relu = false});
  net.add_softmax(fc);
  return net;
}

// --- dilated convolution -------------------------------------------------

struct DilatedCase {
  const char* name;
  MapDims input;
  ConvParams p;
};

// Corner shapes: partition (Din < Tin), deep inter, stride+dilation+pad
// combined, and the dilated k == stride layer that must NOT take the
// sliding-window scheme (its taps are not contiguous).
const DilatedCase kDilated[] = {
    {"partition_d2", {3, 13, 11},
     {.dout = 5, .k = 3, .stride = 1, .pad = 2, .dilation = 2}},
    {"inter_d2", {8, 13, 11},
     {.dout = 6, .k = 3, .stride = 1, .pad = 2, .dilation = 2}},
    {"stride_pad_d3", {8, 17, 15},
     {.dout = 5, .k = 3, .stride = 2, .pad = 3, .dilation = 3}},
    {"k_eq_s_d2", {4, 12, 12},
     {.dout = 6, .k = 2, .stride = 2, .pad = 1, .dilation = 2}},
};

class DilatedConv : public ::testing::TestWithParam<int> {};

TEST_P(DilatedConv, ThreeTierBitIdentityAllPolicies) {
  const DilatedCase& c = kDilated[GetParam()];
  const Network net = zoo::single_conv(c.input, c.p, c.name);
  for (Policy policy : paper_policies()) {
    SCOPED_TRACE(policy_name(policy));
    expect_three_tier_identity(net, policy, tiny_config(4, 4));
  }
}

INSTANTIATE_TEST_SUITE_P(Corners, DilatedConv,
                         ::testing::Range(0,
                                          static_cast<int>(std::size(kDilated))),
                         [](const auto& info) {
                           return std::string(kDilated[info.param].name);
                         });

TEST(DilatedConv, DilationNeverSelectsSlidingWindow) {
  // k == stride qualifies for sliding only when taps are contiguous;
  // dilation > 1 must fall back (partition under adaptive, unroll under
  // fixed-intra).
  const ConvParams dilated{.dout = 6, .k = 2, .stride = 2, .pad = 1,
                           .dilation = 2};
  const Network net = zoo::single_conv({4, 12, 12}, dilated, "d2");
  const AcceleratorConfig config = tiny_config(4, 4);
  for (Policy policy : paper_policies()) {
    SCOPED_TRACE(policy_name(policy));
    auto compiled = compile_network(net, policy, config);
    ASSERT_TRUE(compiled.is_ok());
    for (const Layer& l : net.layers()) {
      if (!l.is_conv()) continue;
      EXPECT_NE(compiled.value().layout.scheme_of(l.id),
                Scheme::kIntraSliding);
    }
  }
  // The same geometry undilated does slide under fixed-intra.
  ConvParams plain = dilated;
  plain.dilation = 1;
  auto compiled = compile_network(zoo::single_conv({4, 12, 12}, plain, "d1"),
                                  Policy::kFixedIntra, config);
  ASSERT_TRUE(compiled.is_ok());
  EXPECT_EQ(compiled.value().layout.scheme_of(1), Scheme::kIntraSliding);
}

TEST(DilatedConv, EffectiveKernelDrivesShapes) {
  // k=3 d=2 -> span 5: same output extent as an undilated 5x5.
  const Network net = zoo::single_conv(
      {3, 14, 14}, {.dout = 4, .k = 3, .stride = 1, .pad = 2, .dilation = 2},
      "keff");
  const Layer& conv = net.layer(1);
  EXPECT_EQ(conv.conv().k_eff(), 5);
  EXPECT_EQ(conv.out_dims.h, 14);
  EXPECT_EQ(conv.out_dims.w, 14);
}

// --- depthwise convolution ----------------------------------------------

TEST(DepthwiseConv, ThreeTierBitIdentityAllPolicies) {
  const Network net = depthwise_toy();
  for (Policy policy : paper_policies()) {
    SCOPED_TRACE(policy_name(policy));
    expect_three_tier_identity(net, policy, tiny_config(4, 4));
  }
}

TEST(DepthwiseConv, AdaptiveSelectsKernelPartitioning) {
  // Depthwise per-group depth is 1 < Tin: Algorithm 2's under-utilization
  // branch must map every dw layer to kPartition (the tentpole claim the
  // README's scheme-mix table prints for MobileNetV1).
  const Network net = depthwise_toy();
  auto compiled =
      compile_network(net, Policy::kAdaptive2, AcceleratorConfig{});
  ASSERT_TRUE(compiled.is_ok());
  for (const Layer& l : net.layers()) {
    if (!l.is_conv() || !l.conv().depthwise(l.in_dims.d)) continue;
    SCOPED_TRACE(l.name);
    EXPECT_EQ(compiled.value().layout.scheme_of(l.id), Scheme::kPartition);
  }
}

TEST(DepthwiseConv, DilatedDepthwiseComposes) {
  Network net("dw_dilated");
  LayerId t = net.add_input({4, 14, 14});
  t = net.add_conv(t, "dw", {.dout = 4, .k = 3, .stride = 1, .pad = 2,
                             .groups = 4, .dilation = 2});
  net.add_conv(t, "pw", {.dout = 6, .k = 1, .stride = 1});
  expect_three_tier_identity(net, Policy::kAdaptive2, tiny_config(4, 4));
}

// --- the depthwise kernel on live data ------------------------------------

// Restores the dispatch backend even when an assertion fails mid-test.
struct BackendGuard {
  ~BackendGuard() { simd::select_backend("auto"); }
};

std::int16_t draw_s16(Rng& rng, i64 bound) {
  return static_cast<std::int16_t>(
      static_cast<i64>(rng.next_u64() % static_cast<std::uint64_t>(
                                             2 * bound + 1)) -
      bound);
}

// Full-range int16 data with every seventh element at -32768.
Tensor3<Fixed16> live_input(MapDims d, Rng& rng) {
  Tensor3<Fixed16> t(d);
  i64 i = 0;
  for (auto& v : t.storage())
    v = Fixed16::from_raw(i++ % 7 == 3 ? std::int16_t{-32768}
                                       : draw_s16(rng, 32767));
  return t;
}

// One depthwise layer packed the way FuncExecutor::load_params packs it:
// its k*k filters back to back, exact when one fails the filter-sum
// contract.
struct DwPack {
  func::PackedRows rows;
  std::vector<Fixed16::acc_t> bias_acc;
  bool exact = true;
};

DwPack pack_depthwise(const Tensor4<Fixed16>& w,
                      const std::vector<Fixed16>& bias) {
  const i64 dout = w.dims().dout;
  const i64 taps = w.dims().count() / dout;
  DwPack pk;
  for (const Fixed16 v : w.storage()) pk.rows.push_back(v.raw());
  pk.exact = !simd::filter_sum_ok(pk.rows.data(), taps, dout, taps);
  pk.bias_acc = func::promote_bias(bias, dout);
  return pk;
}

// conv2d_func_batch on `inputs` under every supported backend, each
// image against conv2d_ref.
void expect_dw_batch_matches_ref(const std::vector<Tensor3<Fixed16>>& inputs,
                                 const Tensor4<Fixed16>& w,
                                 const std::vector<Fixed16>& bias,
                                 const ConvParams& p, const DwPack& pk) {
  std::vector<const Tensor3<Fixed16>*> in_ptrs;
  std::vector<Tensor3<Fixed16>> want;
  for (const auto& t : inputs) {
    in_ptrs.push_back(&t);
    want.push_back(conv2d_ref(t, w, bias, p));
  }
  BackendGuard guard;
  for (simd::Backend b : simd::supported_backends()) {
    simd::select_backend(b);
    std::vector<Tensor3<Fixed16>> got;
    for (const auto& t : want) got.emplace_back(t.dims());
    std::vector<Tensor3<Fixed16>*> out_ptrs;
    for (auto& t : got) out_ptrs.push_back(&t);
    func::KernelScratch scratch;
    func::conv2d_func_batch(in_ptrs, pk.rows, pk.bias_acc, p, pk.exact,
                            scratch, out_ptrs);
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_TRUE(tensors_equal(want[i], got[i]))
          << simd::backend_name(b) << " image " << i;
  }
}

// The vectorized depthwise path (zero-padded staging plus
// simd::dw_conv_s16) against conv2d_ref on full-range data, over every
// kernel size, stride and pad MobileNet-style layers use, plane widths
// 1..40 (not only multiples of the 8- and 16-lane blocks) and batches of
// 1..5. Per channel the filter scale is tiny (unsaturated outputs,
// rounding exercised), mid, or at the contract's edge (saturating).
TEST(DepthwiseKernel, ScalarAndAvx2MatchReferenceOverShapeGrid) {
  Rng rng(2016);
  for (const i64 k : {3, 5})
    for (const i64 stride : {1, 2})
      for (const i64 pad : {0, 1, 2})
        for (i64 width = 1; width <= 40; ++width) {
          const i64 height = std::max(k, 2 + (width * 5) % 11);
          if (width + 2 * pad < k) continue;
          const i64 ch = 2 + width % 3;
          const i64 batch = 1 + (width + k + stride + pad) % 5;
          SCOPED_TRACE(::testing::Message()
                       << "k=" << k << " s=" << stride << " pad=" << pad
                       << " " << height << "x" << width << " b=" << batch);
          const ConvParams p{.dout = ch, .k = k, .stride = stride,
                             .pad = pad, .groups = ch,
                             .relu = width % 2 == 0};
          Tensor4<Fixed16> w({ch, 1, k, k});
          for (i64 o = 0; o < ch; ++o) {
            const i64 bound = o % 3 == 0   ? 3
                              : o % 3 == 1 ? 200
                                           : 65535 / (k * k);
            for (i64 i = 0; i < k * k; ++i)
              w.storage()[static_cast<std::size_t>(o * k * k + i)] =
                  Fixed16::from_raw(draw_s16(rng, bound));
          }
          std::vector<Fixed16> bias;
          for (i64 o = 0; o < ch; ++o)
            bias.push_back(Fixed16::from_raw(draw_s16(rng, 32767)));
          std::vector<Tensor3<Fixed16>> inputs;
          for (i64 b = 0; b < batch; ++b)
            inputs.push_back(live_input({ch, height, width}, rng));
          const DwPack pk = pack_depthwise(w, bias);
          ASSERT_FALSE(pk.exact);
          expect_dw_batch_matches_ref(inputs, w, bias, p, pk);
        }
}

// The contract is sum |w| <= 65535 per filter. At exactly 65535 against
// all -32768 data every window sum is -32768 * (+-65535), one step inside
// int32: the filter must stay fast and the kernel must be exact on every
// backend. One more unit breaks the contract: the layer packs exact and
// runs the same staged planes through the exact int64 loop, still
// matching conv2d_ref.
TEST(DepthwiseKernel, ContractBoundaryIsExactAndOneMoreFallsBack) {
  for (const i64 k : {3, 5}) {
    const i64 taps = k * k;
    const ConvParams p{.dout = 2, .k = k, .stride = 1, .pad = 1,
                       .groups = 2, .relu = false};
    Tensor4<Fixed16> w({2, 1, k, k});
    for (i64 i = 0; i < taps; ++i) {
      // 65535 split over the taps, the remainder on tap 0; filter 1 is
      // filter 0 negated.
      const i64 v = 65535 / taps + (i == 0 ? 65535 % taps : 0);
      w.storage()[static_cast<std::size_t>(i)] =
          Fixed16::from_raw(static_cast<std::int16_t>(v));
      w.storage()[static_cast<std::size_t>(taps + i)] =
          Fixed16::from_raw(static_cast<std::int16_t>(-v));
    }
    const std::vector<Fixed16> bias = {Fixed16::from_raw(-7),
                                       Fixed16::from_raw(32767)};
    Tensor3<Fixed16> in({2, 9, 37});
    for (auto& v : in.storage()) v = Fixed16::from_raw(-32768);

    const DwPack at_bound = pack_depthwise(w, bias);
    EXPECT_FALSE(at_bound.exact) << "k=" << k;
    expect_dw_batch_matches_ref({in}, w, bias, p, at_bound);

    // The kernel itself, one row of 21 outputs (a 16-lane block and a
    // ragged one) of the window sum at the bound, bias added after.
    const i64 n = 21;
    std::vector<std::int16_t> row(static_cast<std::size_t>(k * (n + k)),
                                  -32768);
    BackendGuard guard;
    for (simd::Backend b : simd::supported_backends()) {
      simd::select_backend(b);
      for (i64 o = 0; o < 2; ++o) {
        std::vector<std::int16_t> out(static_cast<std::size_t>(n));
        simd::dw_conv_s16(row.data(), n + k, 1,
                          at_bound.rows.data() + o * taps,
                          k, 1, n,
                          at_bound.bias_acc[static_cast<std::size_t>(o)],
                          false, out.data(), n);
        const Fixed16::acc_t sum = (o == 0 ? -1 : 1) * i64{32768} * 65535;
        const std::int16_t want = ArithTraits<Fixed16>::finalize(
            sum + at_bound.bias_acc[static_cast<std::size_t>(o)], false)
                                      .raw();
        for (i64 c = 0; c < n; ++c)
          EXPECT_EQ(out[static_cast<std::size_t>(c)], want)
              << simd::backend_name(b) << " k=" << k << " filter " << o
              << " col " << c;
      }
    }

    Tensor4<Fixed16> over = w;
    over.storage()[taps] = Fixed16::from_raw(
        static_cast<std::int16_t>(over.storage()[taps].raw() - 1));
    const DwPack past_bound = pack_depthwise(over, bias);
    EXPECT_TRUE(past_bound.exact) << "k=" << k;
    expect_dw_batch_matches_ref({in}, over, bias, p, past_bound);
  }
}

// A filter past the filter-sum contract (three taps of 30000: sum |w| =
// 90000 + small): its layer packs exact and runs the same staged planes
// through the exact int64 loop, the other depthwise layer stays fast,
// the pack equals the serial rule, and ref, cycle and functional tiers
// agree bit for bit. The layer's planes spread over the pool, and every
// layer's bytes match at jobs 1 and 4.
TEST(DepthwiseConv, ContractBreakingFilterTakesExactPlanes) {
  const Network net = depthwise_toy();
  auto params = init_net_params<Fixed16>(net, kSeed);
  const LayerId dw1 = 1, dw2 = 3;
  ASSERT_EQ(net.layer(dw1).name, "dw1");
  auto& w = params.per_layer[static_cast<std::size_t>(dw1)].weights;
  for (const i64 tap : {0, 2, 4})
    w.storage()[static_cast<std::size_t>(9 + tap)] =
        Fixed16::from_raw(30000);

  auto compiled =
      compile_network(net, Policy::kAdaptive2, AcceleratorConfig{});
  ASSERT_TRUE(compiled.is_ok());
  func::FuncExecutor func(net, compiled.value(), AcceleratorConfig{});
  func.load_params(params);
  const auto& packed = *func.packed_params();
  expect_pack_matches_serial(net, params, packed);
  EXPECT_TRUE(packed[static_cast<std::size_t>(dw1)].exact);
  EXPECT_FALSE(packed[static_cast<std::size_t>(dw2)].exact);

  BackendGuard guard;
  for (simd::Backend b : simd::supported_backends()) {
    SCOPED_TRACE(simd::backend_name(b));
    simd::select_backend(b);
    expect_three_tier_identity(net, Policy::kAdaptive2, tiny_config(4, 4),
                               params);
  }

  const auto input = random_input<Fixed16>(net.layer(0).out_dims, kSeed);
  const i64 jobs_before = parallel::default_jobs();
  std::vector<std::vector<Tensor3<Fixed16>>> by_jobs;
  for (const i64 jobs : {1, 4}) {
    parallel::set_default_jobs(jobs);
    func.infer(input);
    by_jobs.emplace_back();
    for (const Layer& l : net.layers())
      by_jobs.back().push_back(func.output(l.id));
  }
  parallel::set_default_jobs(jobs_before);
  for (const Layer& l : net.layers())
    EXPECT_TRUE(tensors_equal(by_jobs[0][static_cast<std::size_t>(l.id)],
                              by_jobs[1][static_cast<std::size_t>(l.id)]))
        << l.name;
}

// depthwise_toy cube by cube: both depthwise layers (s1 and s2) on the
// staged kernel path against the simulator, on every backend.
TEST(DepthwiseConv, FunctionalMatchesCycleLayerByLayer) {
  const Network net = depthwise_toy();
  const auto params = init_net_params<Fixed16>(net, kSeed);
  const auto input = random_input<Fixed16>(net.layer(0).out_dims, kSeed);
  BackendGuard guard;
  for (simd::Backend b : simd::supported_backends()) {
    SCOPED_TRACE(simd::backend_name(b));
    simd::select_backend(b);
    expect_func_matches_sim_per_layer(net, tiny_config(4, 4), params, input);
  }
}

// load_params splits big layers into several chunks of pack units and
// ORs their exact flags: a breaking filter in a later chunk must still
// demote the whole layer. 8400 depthwise filters, a 10-row FC over
// 134,400 inputs and a 1x1 tile conv of 24 filters over 8400 channels (4
// blocks of 50,400 packed words) span several chunks each; one late
// filter of each breaks its contract.
TEST(DepthwiseConv, LateChunkBreakingRowDemotesWholeLayer) {
  Network net("chunked");
  LayerId t = net.add_input({8400, 4, 4});
  const LayerId dw = net.add_conv(
      t, "dw", {.dout = 8400, .k = 3, .stride = 1, .pad = 1, .groups = 8400});
  const LayerId fc = net.add_fc(dw, "fc", {.dout = 10, .relu = false});
  ASSERT_TRUE(net.validate().is_ok());
  Network net2("chunked_tile");
  const LayerId pw = net2.add_conv(net2.add_input({8400, 2, 2}), "pw",
                                   {.dout = 24, .k = 1, .stride = 1});
  ASSERT_TRUE(net2.validate().is_ok());
  auto params = init_net_params<Fixed16>(net, kSeed);
  auto params2 = init_net_params<Fixed16>(net2, kSeed);
  const auto exact = [](const Network& n, const NetParamsData<Fixed16>& pd,
                        std::vector<LayerId> ids) {
    auto compiled =
        compile_network(n, Policy::kAdaptive2, AcceleratorConfig{});
    EXPECT_TRUE(compiled.is_ok());
    auto f = std::make_unique<func::FuncExecutor>(n, compiled.value(),
                                                  AcceleratorConfig{});
    f->load_params(pd);
    expect_pack_matches_serial(n, pd, *f->packed_params());
    std::vector<bool> m;
    for (const LayerId id : ids)
      m.push_back((*f->packed_params())[static_cast<std::size_t>(id)].exact);
    return m;
  };
  EXPECT_EQ(exact(net, params, {dw, fc}), (std::vector{false, false}));
  EXPECT_EQ(exact(net2, params2, {pw}), (std::vector{false}));
  auto& dww = params.per_layer[static_cast<std::size_t>(dw)].weights;
  for (const i64 tap : {0, 2, 4})
    dww.storage()[static_cast<std::size_t>(8350 * 9 + tap)] =
        Fixed16::from_raw(30000);
  auto& fcw = params.per_layer[static_cast<std::size_t>(fc)].weights;
  for (const i64 g : {0, 1, 2})  // row 7: sum |w| > 90000
    fcw.storage()[static_cast<std::size_t>(7 * 134400 + 16 * g)] =
        Fixed16::from_raw(30000);
  auto& pww = params2.per_layer[static_cast<std::size_t>(pw)].weights;
  for (const i64 c : {0, 2, 4})  // filter 20, in the last block
    pww.storage()[static_cast<std::size_t>(20 * 8400 + c)] =
        Fixed16::from_raw(30000);
  EXPECT_EQ(exact(net, params, {dw, fc}), (std::vector{true, true}));
  EXPECT_EQ(exact(net2, params2, {pw}), (std::vector{true}));
}

// A MobileNetV1-shaped depthwise layer (block3: 64 planes of 112x112,
// 3x3 s2 pad 1) with one filter past the filter-sum contract: the layer
// packs exact, and its staged planes through the exact int64 loop
// are byte-equal to conv2d_ref at jobs 1 and 4 on every backend, on
// full-range data.
TEST(DepthwiseConv, MobileNetShapedOffContractLayerMatchesReference) {
  const i64 ch = 64;
  const ConvParams p{.dout = ch, .k = 3, .stride = 2, .pad = 1,
                     .groups = ch, .relu = true};
  Rng rng(kSeed);
  Tensor4<Fixed16> w({ch, 1, 3, 3});
  for (auto& v : w.storage()) v = Fixed16::from_raw(draw_s16(rng, 900));
  // Filter 17: 65535 / 9 = 7281 on every tap, plus one unit on tap 4 and
  // the rest of the 65535 on tap 0, then one more: sum |w| = 65536.
  for (i64 t = 0; t < 9; ++t)
    w.storage()[static_cast<std::size_t>(17 * 9 + t)] = Fixed16::from_raw(
        static_cast<std::int16_t>(-(65535 / 9 + (t == 0 ? 65535 % 9 : 0) +
                                    (t == 4 ? 1 : 0))));
  std::vector<Fixed16> bias;
  for (i64 o = 0; o < ch; ++o)
    bias.push_back(Fixed16::from_raw(draw_s16(rng, 4000)));
  const DwPack pk = pack_depthwise(w, bias);
  ASSERT_TRUE(pk.exact);
  std::vector<Tensor3<Fixed16>> inputs;
  inputs.push_back(live_input({ch, 112, 112}, rng));
  const i64 jobs_before = parallel::default_jobs();
  for (const i64 jobs : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "jobs " << jobs);
    parallel::set_default_jobs(jobs);
    expect_dw_batch_matches_ref(inputs, w, bias, p, pk);
  }
  parallel::set_default_jobs(jobs_before);
}

// --- residual (eltwise add) ---------------------------------------------

TEST(EltwiseAdd, ThreeTierBitIdentityAllPolicies) {
  const Network net = residual_toy();
  for (Policy policy : paper_policies()) {
    SCOPED_TRACE(policy_name(policy));
    expect_three_tier_identity(net, policy, tiny_config(4, 4));
  }
}

TEST(EltwiseAdd, BigBufferConfigToo) {
  // The paper config puts each add band in one tile; tiny_config forces
  // multi-band multi-depth tiling. Both must agree with the reference.
  expect_three_tier_identity(residual_toy(), Policy::kAdaptive2,
                             AcceleratorConfig{});
}

TEST(EltwiseAdd, LinearJoinSaturates) {
  // relu=false keeps negative sums; saturation happens at the single
  // finalize point. Two maximal inputs must clamp, not wrap.
  Network net("sat");
  LayerId in = net.add_input({1, 2, 2});
  LayerId c1 = net.add_conv(in, "c1", {.dout = 1, .k = 1, .stride = 1,
                                       .relu = false});
  LayerId c2 = net.add_conv(in, "c2", {.dout = 1, .k = 1, .stride = 1,
                                       .relu = false});
  net.add_eltwise_add(c1, c2, "add", {.relu = false});
  ASSERT_TRUE(net.validate().is_ok());

  NetParamsData<Fixed16> params;
  params.per_layer.resize(static_cast<std::size_t>(net.size()));
  for (LayerId id : {c1, c2}) {
    auto& pd = params.per_layer[static_cast<std::size_t>(id)];
    pd.weights = Tensor4<Fixed16>({1, 1, 1, 1});
    pd.weights.storage()[0] = Fixed16::from_raw(Fixed16::kRawMax);
    pd.bias.assign(1, Fixed16::from_raw(0));
  }
  Tensor3<Fixed16> input({1, 2, 2});
  for (auto& v : input.storage()) v = Fixed16::from_raw(Fixed16::kRawMax);

  RefExecutor<Fixed16> ref(net, params);
  const Tensor3<Fixed16> golden = ref.run(input);
  for (const auto& v : golden.storage())
    EXPECT_EQ(v.raw(), Fixed16::kRawMax);  // clamped, not wrapped

  auto compiled =
      compile_network(net, Policy::kAdaptive2, tiny_config(4, 4));
  ASSERT_TRUE(compiled.is_ok());
  SimExecutor sim(net, compiled.value(), tiny_config(4, 4));
  EXPECT_TRUE(tensors_equal(golden, sim.run(input, params).final_output));
  func::FuncExecutor func(net, compiled.value(), tiny_config(4, 4));
  func.load_params(params);
  EXPECT_TRUE(tensors_equal(golden, func.infer(input).final_output));
}

TEST(EltwiseAdd, RaggedBatchIsolatesBadSlots) {
  // Status isolation through a residual DAG: malformed slots fail alone,
  // good slots return exactly their sequential-infer bytes.
  const Network net = residual_toy();
  const AcceleratorConfig config;
  auto compiled = compile_network(net, Policy::kAdaptive2, config);
  ASSERT_TRUE(compiled.is_ok());
  auto params = init_net_params<Fixed16>(net, kSeed);

  func::FuncExecutor func(net, compiled.value(), config);
  func.load_params(params);
  auto good0 = random_input<Fixed16>(net.layer(0).out_dims, kSeed + 1);
  auto good1 = random_input<Fixed16>(net.layer(0).out_dims, kSeed + 2);
  Tensor3<Fixed16> wrong({2, 5, 5});

  std::vector<Status> statuses;
  const auto results = func.infer_batch(
      {&good0, nullptr, &wrong, &good1}, &statuses);
  ASSERT_EQ(results.size(), 4u);
  EXPECT_TRUE(statuses[0].is_ok());
  EXPECT_FALSE(statuses[1].is_ok());
  EXPECT_FALSE(statuses[2].is_ok());
  EXPECT_TRUE(statuses[3].is_ok());

  func::FuncExecutor serial(net, compiled.value(), config);
  serial.load_params(params);
  EXPECT_TRUE(tensors_equal(serial.infer(good0).final_output,
                            results[0].final_output));
  EXPECT_TRUE(tensors_equal(serial.infer(good1).final_output,
                            results[3].final_output));
}

// --- multi-consumer DAG bookkeeping --------------------------------------

TEST(ResidualDag, ValidatePassesWithMultiConsumerEdges) {
  // The shortcut producer feeds two consumers (next conv + the join);
  // "every non-input consumed" must hold without duplicate edges.
  const Network net = residual_toy();
  EXPECT_TRUE(net.validate().is_ok());
  const Network big = zoo::resnet18();
  EXPECT_TRUE(big.validate().is_ok());
}

TEST(ResidualDag, DotExportEmitsBothOutEdges) {
  const Network net = residual_toy();
  const std::string dot = to_dot(net);
  // stem (layer 1) feeds b1/conv1 and b1/add: two out-edges, one node.
  i64 stem_edges = 0;
  std::size_t pos = 0;
  while ((pos = dot.find("n1 -> ", pos)) != std::string::npos) {
    ++stem_edges;
    pos += 6;
  }
  EXPECT_EQ(stem_edges, 2);
  EXPECT_NE(dot.find("shape=diamond"), std::string::npos);  // add nodes
}

// --- spec parser ---------------------------------------------------------

TEST(SpecParser, ModernLayersRoundTrip) {
  const std::string spec =
      "network modern\n"
      "input data 4 12 12\n"
      "conv dw dout=4 k=3 s=1 pad=1 groups=depthwise\n"
      "conv pw dout=8 k=1\n"
      "conv dil dout=8 k=3 pad=2 dilation=2 relu=0\n"
      "add join inputs=pw,dil relu=1\n"
      "softmax prob\n";
  auto parsed = parse_network_spec(spec);
  ASSERT_TRUE(parsed.is_ok()) << parsed.status().to_string();
  const Network& net = parsed.value();
  EXPECT_EQ(net.layer(1).conv().groups, 4);  // depthwise resolved
  EXPECT_TRUE(net.layer(1).conv().depthwise(net.layer(1).in_dims.d));
  EXPECT_EQ(net.layer(3).conv().dilation, 2);
  EXPECT_EQ(net.layer(4).kind, LayerKind::kEltwiseAdd);
  EXPECT_TRUE(net.layer(4).eltwise().relu);

  // Emit -> reparse -> emit is a fixed point.
  const std::string emitted = network_to_spec(net);
  auto reparsed = parse_network_spec(emitted);
  ASSERT_TRUE(reparsed.is_ok()) << reparsed.status().to_string();
  EXPECT_EQ(network_to_spec(reparsed.value()), emitted);
  EXPECT_NE(emitted.find("dilation=2"), std::string::npos);
  EXPECT_NE(emitted.find("add join inputs=pw,dil"), std::string::npos);
}

TEST(SpecParser, GarbageInputsFailWithLinePrefixedStatus) {
  const struct {
    const char* spec;
    const char* expect;  // substring of the error message
  } kCases[] = {
      {"network t\ninput d 3 8 8\nconv c dout=4 k=3 dilation=zero",
       "line 3"},
      {"network t\ninput d 3 8 8\nconv c dout=4 k=3 dilation=0",
       "line 3"},  // builder CHECK surfaces as a parse error
      {"network t\ninput d 3 8 8\nadd j inputs=d", "exactly two"},
      {"network t\ninput d 3 8 8\nadd j inputs=d,ghost",
       "unknown add input"},
      {"network t\ninput d 3 8 8\nadd j relu=1", "needs inputs"},
      {"network t\ninput d 3 8 8\nconv c dout=4 k=3 groups=depthwise "
       "dilation=",
       "line 3"},
  };
  for (const auto& c : kCases) {
    SCOPED_TRACE(c.spec);
    auto r = parse_network_spec(c.spec);
    ASSERT_FALSE(r.is_ok());
    EXPECT_NE(r.status().message().find(c.expect), std::string::npos)
        << r.status().to_string();
  }
  // Self-add: the builder rejects a join of a layer with itself.
  auto self = parse_network_spec(
      "network t\ninput d 3 8 8\nconv c dout=4 k=3\nadd j inputs=c,c");
  EXPECT_FALSE(self.is_ok());
}

// --- zoo workloads -------------------------------------------------------

TEST(ModernZoo, CanonicalShapesAndMacs) {
  const Network r18 = zoo::resnet18();
  EXPECT_EQ(r18.layers().back().out_dims.d, 1000);
  // Canonical ResNet-18: ~1.81 GMACs, 11.7M params.
  const NetworkWorkload wr = analyze_workload(r18);
  EXPECT_NEAR(static_cast<double>(wr.total_macs), 1.814e9, 0.02e9);
  EXPECT_NEAR(static_cast<double>(wr.total_weight_words), 11.68e6, 0.1e6);

  const Network mb = zoo::mobilenetv1();
  EXPECT_EQ(mb.layers().back().out_dims.d, 1000);
  // Canonical MobileNetV1 (1.0/224): ~568 MMACs, ~4.2M params.
  const NetworkWorkload wm = analyze_workload(mb);
  EXPECT_NEAR(static_cast<double>(wm.total_macs), 568e6, 10e6);
  EXPECT_NEAR(static_cast<double>(wm.total_weight_words), 4.2e6, 0.1e6);
}

TEST(ModernZoo, MobileNetDepthwiseLayersAllPartition) {
  const Network net = zoo::mobilenetv1();
  auto compiled =
      compile_network(net, Policy::kAdaptive2, AcceleratorConfig{});
  ASSERT_TRUE(compiled.is_ok());
  int dw = 0;
  for (const Layer& l : net.layers()) {
    if (!l.is_conv() || !l.conv().depthwise(l.in_dims.d)) continue;
    ++dw;
    EXPECT_EQ(compiled.value().layout.scheme_of(l.id), Scheme::kPartition)
        << l.name;
  }
  EXPECT_EQ(dw, 13);
}

}  // namespace
}  // namespace cbrain::test
