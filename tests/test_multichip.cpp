// Multi-chip scale-out (DESIGN.md §16): the partition planner, the
// package interconnect model and the MultiChipExecutor. The load-bearing
// property is the determinism contract — at any chip count, partition
// strategy, fidelity or fan-out, the package's output is bit-identical
// to the single-chip oracle — plus halo/shard corner shapes (stride,
// dilation, depthwise, within-group slices), eltwise joins split across
// chips, per-piece verifier coverage and the closed-form interconnect
// costs.
#include <string>
#include <vector>

#include "cbrain/compiler/verifier.hpp"
#include "cbrain/engine/engine.hpp"
#include "cbrain/multichip/executor.hpp"
#include "support.hpp"

namespace cbrain::test {
namespace {

using multichip::ExchangeKind;
using multichip::InterconnectConfig;
using multichip::LayerPartition;
using multichip::MultiChipExecutor;
using multichip::MultiChipOptions;
using multichip::MultiChipPlan;
using multichip::PartitionStrategy;
using multichip::PipelineStage;
using multichip::PlanOptions;
using multichip::ShardAxis;
using multichip::ShardPiece;

constexpr std::uint64_t kSeed = 2016;

// The residual toy from the modern-layer suite: identity and projection
// shortcuts, so shard plans must split eltwise joins across chips.
Network residual_toy() {
  Network net("residual_toy");
  LayerId in = net.add_input({3, 12, 12});
  LayerId c0 = net.add_conv(in, "stem",
                            {.dout = 6, .k = 3, .stride = 1, .pad = 1});
  LayerId c1 = net.add_conv(c0, "b1/conv1",
                            {.dout = 6, .k = 3, .stride = 1, .pad = 1});
  LayerId c2 = net.add_conv(c1, "b1/conv2",
                            {.dout = 6, .k = 3, .stride = 1, .pad = 1,
                             .relu = false});
  LayerId j1 = net.add_eltwise_add(c2, c0, "b1/add", {.relu = true});
  LayerId c3 = net.add_conv(j1, "b2/conv1",
                            {.dout = 8, .k = 3, .stride = 2, .pad = 1});
  LayerId c4 = net.add_conv(c3, "b2/conv2",
                            {.dout = 8, .k = 3, .stride = 1, .pad = 1,
                             .relu = false});
  LayerId p1 = net.add_conv(j1, "b2/proj",
                            {.dout = 8, .k = 1, .stride = 2, .pad = 0,
                             .relu = false});
  LayerId j2 = net.add_eltwise_add(c4, p1, "b2/add", {.relu = true});
  net.add_softmax(j2, "prob");
  return net;
}

// Single-chip oracle bytes for (net, policy, fidelity).
Tensor3<Fixed16> oracle_output(engine::Engine& engine, const Network& net,
                               const NetParamsData<Fixed16>& params,
                               const Tensor3<Fixed16>& input,
                               Fidelity fidelity) {
  auto session =
      engine.open_session(net, Policy::kAdaptive2, params, fidelity);
  return session->infer(input).final_output;
}

// Runs the package at the given options and asserts bit-identity against
// the single-chip oracle.
void expect_package_identity(const Network& net,
                             const MultiChipOptions& options,
                             std::uint64_t seed = kSeed,
                             const AcceleratorConfig& config = tiny_config(4,
                                                                           4)) {
  engine::Engine engine(config);
  const auto params = init_net_params<Fixed16>(net, seed);
  const auto input =
      random_input<Fixed16>(net.layer(0).out_dims, seed ^ 0x77);
  const Tensor3<Fixed16> golden =
      oracle_output(engine, net, params, input, options.fidelity);

  MultiChipExecutor mc(engine, net, options);
  mc.load_params(params);
  const SimResult r = mc.infer(input);
  EXPECT_TRUE(tensors_equal(golden, r.final_output))
      << net.name() << " chips=" << options.plan.chips << " "
      << multichip::partition_strategy_name(mc.plan().strategy);
}

TEST(MultiChip, OneChipMatchesOracleEitherStrategy) {
  for (const PartitionStrategy s :
       {PartitionStrategy::kAuto, PartitionStrategy::kPipeline,
        PartitionStrategy::kShard}) {
    MultiChipOptions o;
    o.plan.chips = 1;
    o.plan.strategy = s;
    expect_package_identity(zoo::tiny_cnn(), o);
  }
}

TEST(MultiChip, BitIdentityAcrossChipCountsAndStrategies) {
  const std::vector<Network> nets = {zoo::tiny_cnn(), zoo::scheme_mix_cnn(),
                                     zoo::mini_inception(), residual_toy()};
  for (const Network& net : nets)
    for (const i64 chips : {2, 4})
      for (const PartitionStrategy s :
           {PartitionStrategy::kPipeline, PartitionStrategy::kShard}) {
        MultiChipOptions o;
        o.plan.chips = chips;
        o.plan.strategy = s;
        expect_package_identity(net, o);
      }
}

// The acceptance sweep: every zoo network, both partition strategies, an
// odd chip count (uneven splits everywhere). Functional fidelity keeps
// VGG16/GoogLeNet affordable; the tiers are bit-identical by §12, so
// this is the same oracle bytes the cycle tier would produce.
TEST(MultiChip, WholeZooBitIdentityBothStrategies) {
  const std::vector<Network (*)()> makers = {
      zoo::alexnet, zoo::vgg16,    zoo::googlenet,  zoo::nin,
      zoo::lenet5,  zoo::zfnet,    zoo::squeezenet, zoo::resnet18,
      zoo::mobilenetv1};
  for (Network (*make)() : makers) {
    const Network net = make();
    for (const PartitionStrategy s :
         {PartitionStrategy::kPipeline, PartitionStrategy::kShard}) {
      MultiChipOptions o;
      o.plan.chips = 3;
      o.plan.strategy = s;
      o.fidelity = Fidelity::kFunctional;
      expect_package_identity(net, o, kSeed,
                              AcceleratorConfig::paper_16_16());
    }
  }
}

TEST(MultiChip, FunctionalFidelityBitIdentity) {
  for (const PartitionStrategy s :
       {PartitionStrategy::kPipeline, PartitionStrategy::kShard}) {
    MultiChipOptions o;
    o.plan.chips = 3;
    o.plan.strategy = s;
    o.fidelity = Fidelity::kFunctional;
    expect_package_identity(zoo::scheme_mix_cnn(), o);
  }
}

// Halo corner shapes: pin the conv axis to kSpatial so every band must
// fetch exactly the right input rows — strided, dilated, depthwise and
// 1x1 kernels all bend the halo arithmetic differently. Chip counts
// above the row count leave trailing chips idle.
TEST(MultiChip, SpatialHaloCornerShapes) {
  struct Case {
    const char* name;
    ConvParams p;
    MapDims in;
  };
  const std::vector<Case> cases = {
      {"stride2", {.dout = 4, .k = 3, .stride = 2, .pad = 1}, {3, 11, 9}},
      {"stride3", {.dout = 4, .k = 5, .stride = 3, .pad = 2}, {2, 13, 13}},
      {"dilated2", {.dout = 4, .k = 3, .stride = 1, .pad = 2,
                    .dilation = 2}, {3, 10, 10}},
      {"depthwise", {.dout = 6, .k = 3, .stride = 1, .pad = 1,
                     .groups = 6}, {6, 9, 9}},
      {"pointwise", {.dout = 5, .k = 1, .stride = 1, .pad = 0}, {4, 7, 7}},
      {"nopad", {.dout = 4, .k = 3, .stride = 1, .pad = 0}, {3, 8, 8}},
  };
  for (const Case& c : cases)
    for (const i64 chips : {2, 3, 8}) {
      MultiChipOptions o;
      o.plan.chips = chips;
      o.plan.strategy = PartitionStrategy::kShard;
      o.plan.force_conv_axis = ShardAxis::kSpatial;
      expect_package_identity(zoo::single_conv(c.in, c.p, c.name), o,
                              kSeed + chips);
    }
}

// The dout axis's two regimes: whole-group sharding (groups >= chips)
// and within-group weight-row slices (groups < chips), plus the uneven
// split when dout % chips != 0.
TEST(MultiChip, DoutShardGroupRegimes) {
  const std::vector<std::pair<const char*, Network>> nets = {
      {"grouped", zoo::single_conv({8, 6, 6},
                                   {.dout = 8, .k = 3, .stride = 1,
                                    .pad = 1, .groups = 4}, "grouped")},
      {"uneven", zoo::single_conv({3, 6, 6},
                                  {.dout = 7, .k = 3, .stride = 1,
                                   .pad = 1}, "uneven")},
      {"depthwise", zoo::single_conv({6, 8, 8},
                                     {.dout = 6, .k = 3, .stride = 1,
                                      .pad = 1, .groups = 6},
                                     "depthwise")},
  };
  for (const auto& [name, net] : nets)
    for (const i64 chips : {2, 3, 5}) {
      MultiChipOptions o;
      o.plan.chips = chips;
      o.plan.strategy = PartitionStrategy::kShard;
      o.plan.force_conv_axis = ShardAxis::kDout;
      expect_package_identity(net, o, kSeed + chips);
    }
}

// Residual joins: the eltwise add runs host-side per chip over row
// bands; identity and projection shortcuts must survive both spatial
// and dout conv sharding around them.
TEST(MultiChip, EltwiseJoinSplitAcrossChips) {
  for (const ShardAxis axis : {ShardAxis::kDout, ShardAxis::kSpatial})
    for (const i64 chips : {2, 3}) {
      MultiChipOptions o;
      o.plan.chips = chips;
      o.plan.strategy = PartitionStrategy::kShard;
      o.plan.force_conv_axis = axis;
      expect_package_identity(residual_toy(), o, kSeed + chips);
    }
}

// Every piece/stage subnet must pass the static verifier — the V-checks
// hold per chip, not just for the global single-chip program.
TEST(MultiChip, VerifierHoldsPerPiece) {
  const AcceleratorConfig config = tiny_config(4, 4);
  const Network net = zoo::scheme_mix_cnn();
  for (const PartitionStrategy s :
       {PartitionStrategy::kPipeline, PartitionStrategy::kShard}) {
    PlanOptions po;
    po.chips = 4;
    po.strategy = s;
    const auto plan = multichip::plan_multichip(net, config, po);
    ASSERT_TRUE(plan.is_ok()) << plan.status().to_string();
    const auto check = [&](const Network& sub) {
      const auto compiled =
          compile_network(sub, Policy::kAdaptive2, config);
      ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
      const VerifyReport vr = verify_program(sub, compiled.value(), config);
      EXPECT_TRUE(vr.ok()) << sub.name() << ": " << vr.to_string();
    };
    for (const PipelineStage& st : plan.value().stages) check(st.subnet);
    for (const LayerPartition& lp : plan.value().layers)
      for (const ShardPiece& piece : lp.pieces)
        if (piece.subnet.has_value()) check(*piece.subnet);
  }
}

TEST(MultiChip, PlanShapesAreExactCovers) {
  const AcceleratorConfig config = tiny_config(4, 4);
  const Network net = zoo::scheme_mix_cnn();

  PlanOptions po;
  po.chips = 3;
  po.strategy = PartitionStrategy::kPipeline;
  const auto pipe = multichip::plan_multichip(net, config, po);
  ASSERT_TRUE(pipe.is_ok());
  // Stages tile [1, n) contiguously.
  LayerId next = 1;
  for (const PipelineStage& st : pipe.value().stages) {
    EXPECT_EQ(st.first, next);
    EXPECT_LE(st.first, st.last);
    next = st.last + 1;
  }
  EXPECT_EQ(next, net.size());

  po.strategy = PartitionStrategy::kShard;
  const auto shard = multichip::plan_multichip(net, config, po);
  ASSERT_TRUE(shard.is_ok());
  for (const Layer& l : net.layers()) {
    const LayerPartition& lp =
        shard.value().layers[static_cast<std::size_t>(l.id)];
    if (lp.axis == ShardAxis::kHostConcat ||
        l.kind == LayerKind::kInput)
      continue;
    // Each output word is produced by exactly one piece.
    i64 words = 0;
    for (const ShardPiece& piece : lp.pieces)
      if (piece.active()) words += piece.out_words(l.out_dims);
    EXPECT_EQ(words, l.out_dims.count()) << l.name;
  }
}

TEST(MultiChip, InvalidChipCountsAreStatusErrors) {
  for (const i64 chips : {i64{0}, i64{-3}, multichip::kMaxChips + 1}) {
    EXPECT_FALSE(multichip::validate_chip_count(chips).is_ok()) << chips;
    PlanOptions po;
    po.chips = chips;
    EXPECT_FALSE(multichip::plan_multichip(zoo::tiny_cnn(),
                                           tiny_config(), po)
                     .is_ok())
        << chips;
  }
  EXPECT_TRUE(multichip::validate_chip_count(1).is_ok());
  EXPECT_TRUE(multichip::validate_chip_count(multichip::kMaxChips).is_ok());
}

TEST(MultiChip, InterconnectClosedForms) {
  InterconnectConfig cfg;
  cfg.words_per_cycle = 4.0;
  cfg.latency_cycles = 100;
  cfg.energy_pj_per_word = 2.0;
  EXPECT_EQ(cfg.link_cycles(400), 100 + 100);
  EXPECT_EQ(cfg.link_cycles(0), 0);
  EXPECT_EQ(cfg.all_gather_cycles(400, 4), 3 * 200);

  multichip::Interconnect icn(cfg, 4);
  EXPECT_EQ(icn.transfer(0, 1, 400), 200);
  EXPECT_EQ(icn.link(0, 1).transfers, 1);
  EXPECT_EQ(icn.link(0, 1).words, 400);
  EXPECT_EQ(icn.transfer(2, 2, 400), 0);  // self-link is free

  // Ring all-gather: link c->c+1 carries total - dst's own piece.
  EXPECT_EQ(icn.all_gather({100, 200, 300, 0}), 3 * cfg.link_cycles(300));
  EXPECT_EQ(icn.link(0, 1).words, 400 + (600 - 200));
  EXPECT_EQ(icn.link(3, 0).words, 600 - 100);

  // Broadcast: ceil(log2(4)) = 2 rounds, every other chip charged.
  EXPECT_EQ(icn.broadcast(0, 40), 2 * cfg.link_cycles(40));
  EXPECT_EQ(icn.link(0, 2).words, 40);
  EXPECT_DOUBLE_EQ(icn.total_energy_pj(),
                   2.0 * static_cast<double>(icn.total_words()));

  icn.reset_stats();
  EXPECT_EQ(icn.total_transfers(), 0);
  EXPECT_EQ(icn.total_words(), 0);
}

TEST(MultiChip, InferManyMatchesSequentialAtAnyJobs) {
  engine::Engine engine(tiny_config(4, 4));
  const Network net = zoo::tiny_cnn();
  const auto params = init_net_params<Fixed16>(net, kSeed);
  std::vector<Tensor3<Fixed16>> inputs;
  for (int i = 0; i < 5; ++i)
    inputs.push_back(random_input<Fixed16>(net.layer(0).out_dims,
                                           kSeed + 100 + i));
  for (const PartitionStrategy s :
       {PartitionStrategy::kPipeline, PartitionStrategy::kShard}) {
    MultiChipOptions o;
    o.plan.chips = 3;
    o.plan.strategy = s;
    MultiChipExecutor seq(engine, net, o);
    seq.load_params(params);
    std::vector<SimResult> golden;
    for (const auto& in : inputs) golden.push_back(seq.infer(in));

    for (const i64 jobs : {i64{1}, i64{4}}) {
      MultiChipExecutor mc(engine, net, o);
      mc.load_params(params);
      const std::vector<SimResult> got = mc.infer_many(inputs, jobs);
      ASSERT_EQ(got.size(), golden.size());
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(tensors_equal(golden[i].final_output,
                                  got[i].final_output))
            << "jobs=" << jobs << " img=" << i;
      // Pipelining overlaps images; the per-chip accounting must agree
      // with the sequential run's totals regardless.
      EXPECT_EQ(mc.stats().images, static_cast<i64>(inputs.size()));
    }
  }
}

TEST(MultiChip, StatsAccountComputeAndTraffic) {
  engine::Engine engine(tiny_config(4, 4));
  const Network net = zoo::scheme_mix_cnn();
  const auto params = init_net_params<Fixed16>(net, kSeed);
  const auto input =
      random_input<Fixed16>(net.layer(0).out_dims, kSeed ^ 0x9);

  MultiChipOptions o;
  o.plan.chips = 4;
  o.plan.strategy = PartitionStrategy::kShard;
  MultiChipExecutor mc(engine, net, o);
  mc.load_params(params);
  mc.infer(input);

  const multichip::MultiChipStats st = mc.stats();
  EXPECT_EQ(st.images, 1);
  EXPECT_EQ(static_cast<i64>(st.chips.size()), 4);
  EXPECT_GT(st.makespan_cycles, 0);
  EXPECT_GT(st.steady_cycles, 0);
  EXPECT_GT(st.xfer_words, 0);       // shards must exchange partials
  EXPECT_GT(st.xfer_transfers, 0);
  EXPECT_GT(st.xfer_energy_pj, 0.0);
  EXPECT_GT(st.chips[0].compute_cycles, 0);
  // Counters and clocks are pure functions of (net, config, plan): a
  // second identical run reports identical numbers.
  MultiChipExecutor mc2(engine, net, o);
  mc2.load_params(params);
  mc2.infer(input);
  const multichip::MultiChipStats st2 = mc2.stats();
  EXPECT_EQ(st.makespan_cycles, st2.makespan_cycles);
  EXPECT_EQ(st.xfer_words, st2.xfer_words);
  EXPECT_EQ(st.xfer_transfers, st2.xfer_transfers);
}

TEST(MultiChip, AutoPicksTheModelledWinner) {
  const AcceleratorConfig config = tiny_config(4, 4);
  const Network net = zoo::scheme_mix_cnn();
  PlanOptions po;
  po.chips = 4;
  po.strategy = PartitionStrategy::kAuto;
  const auto chosen = multichip::plan_multichip(net, config, po);
  ASSERT_TRUE(chosen.is_ok());
  po.strategy = PartitionStrategy::kPipeline;
  const auto pipe = multichip::plan_multichip(net, config, po);
  po.strategy = PartitionStrategy::kShard;
  const auto shard = multichip::plan_multichip(net, config, po);
  const i64 best = std::min(pipe.value().steady_cycles,
                            shard.value().steady_cycles);
  EXPECT_EQ(chosen.value().steady_cycles, best);
  EXPECT_FALSE(chosen.value().to_string().empty());
}

}  // namespace
}  // namespace cbrain::test
