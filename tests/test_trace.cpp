// Timeline tests: the analytical model's span timeline must agree with its
// own per-layer counters on every zoo net, with the cycle simulator's
// spans and counters on nets small enough to simulate, and the renderer
// must produce a sane picture.
#include <gtest/gtest.h>

#include "cbrain/core/cbrain.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/obs/tracer.hpp"
#include "cbrain/ref/params.hpp"
#include "cbrain/report/timeline.hpp"
#include "cbrain/sim/executor.hpp"

namespace cbrain {
namespace {

const AcceleratorConfig kCfg = AcceleratorConfig::paper_16_16();

obs::TraceData model_spans(const Network& net, CBrain& brain,
                           const AcceleratorConfig& config,
                           Policy policy = Policy::kAdaptive2) {
  obs::TraceData data;
  model_network(net, brain.compile(net, policy), config, {}, &data);
  return data;
}

// The depth-1 (per-layer) spans on the track named `track`, in start order.
std::vector<const obs::Span*> layer_spans(const obs::TraceData& data,
                                          const std::string& track) {
  int id = -1;
  for (const obs::Track& t : data.tracks)
    if (t.name == track) id = t.id;
  std::vector<const obs::Span*> out;
  for (const obs::Span& s : data.spans)
    if (s.track == id && s.depth == 1) out.push_back(&s);
  std::stable_sort(out.begin(), out.end(),
                   [](const obs::Span* a, const obs::Span* b) {
                     return a->start < b->start;
                   });
  return out;
}

// Cycles of cat=="compute" spans on `layer`'s track inside its window —
// the solid share render_span_timeline draws.
i64 compute_within(const obs::TraceData& data, const obs::Span& layer) {
  i64 sum = 0;
  for (const obs::Span& s : data.spans) {
    if (s.track != layer.track || s.cat != "compute") continue;
    const i64 a = std::max(layer.start, s.start);
    const i64 b = std::min(layer.start + layer.dur, s.start + s.dur);
    if (b > a) sum += b - a;
  }
  return sum;
}

std::vector<Network> zoo_nets() {
  return {zoo::alexnet(),     zoo::vgg16(),          zoo::googlenet(),
          zoo::nin(),         zoo::lenet5(),         zoo::zfnet(),
          zoo::squeezenet(),  zoo::resnet18(),       zoo::mobilenetv1(),
          zoo::tiny_cnn(),    zoo::scheme_mix_cnn(), zoo::mini_inception()};
}

// Two residual joins (identity and projected shortcut) at test scale.
Network residual_toy() {
  Network net("residual_toy");
  const LayerId in = net.add_input({8, 14, 14});
  const LayerId c0 =
      net.add_conv(in, "stem", {.dout = 16, .k = 3, .stride = 1, .pad = 1});
  const LayerId c1 = net.add_conv(
      c0, "b1/conv", {.dout = 16, .k = 3, .stride = 1, .pad = 1,
                      .relu = false});
  const LayerId j1 = net.add_eltwise_add(c1, c0, "b1/add", {.relu = true});
  const LayerId c2 = net.add_conv(
      j1, "b2/conv", {.dout = 32, .k = 3, .stride = 2, .pad = 1,
                      .relu = false});
  const LayerId pr = net.add_conv(
      j1, "b2/proj", {.dout = 32, .k = 1, .stride = 2, .relu = false});
  net.add_eltwise_add(c2, pr, "b2/add", {.relu = true});
  return net;
}

// Every layer that takes cycles gets one span whose duration and compute
// share are exactly the model's per-layer total_cycles and
// compute_cycles — FC, host ops and residual adds included — under both
// the flat and the row-buffer DRAM timing.
TEST(Trace, LayerSpansMatchModelAcrossZoo) {
  for (const bool rows : {false, true}) {
    AcceleratorConfig config = kCfg;
    config.dram.row_buffer_model = rows;
    CBrain brain(config);
    for (const Network& net : zoo_nets()) {
      SCOPED_TRACE(net.name() + (rows ? " row-buffer" : " flat"));
      obs::TraceData data;
      const NetworkModelResult r = model_network(
          net, brain.compile(net, Policy::kAdaptive2), config, {}, &data);
      const auto spans = layer_spans(data, "model:" + net.name());
      std::size_t next = 0;
      i64 total = 0;
      for (const Layer& l : net.layers()) {
        const TrafficCounters& c = r.layer(l.id).counters;
        total += c.total_cycles;
        if (c.total_cycles == 0) continue;
        ASSERT_LT(next, spans.size()) << l.name;
        const obs::Span& s = *spans[next++];
        EXPECT_EQ(s.name, l.name);
        EXPECT_EQ(s.dur, c.total_cycles) << l.name;
        EXPECT_EQ(compute_within(data, s), c.compute_cycles) << l.name;
      }
      EXPECT_EQ(next, spans.size());
      ASSERT_FALSE(data.spans.empty());
      EXPECT_EQ(data.spans.front().depth, 0);
      EXPECT_EQ(data.spans.front().dur, total);
    }
  }
}

// The simulator and the model time one program with one PhaseClock, so
// their layer spans coincide and each simulated span is that layer's
// total_cycles counter.
TEST(Trace, SimulatorLayerSpansMatchModelTimeline) {
  CBrain brain(kCfg);
  obs::Tracer& tracer = obs::Tracer::global();
  for (const Network& net : {zoo::tiny_cnn(), zoo::scheme_mix_cnn(),
                             zoo::mini_inception(), residual_toy()}) {
    SCOPED_TRACE(net.name());
    const CompiledNetwork& compiled = brain.compile(net, Policy::kAdaptive2);
    const obs::TraceData model = model_spans(net, brain, kCfg);
    const auto params = init_net_params<Fixed16>(net, 42);
    const auto input = random_input<Fixed16>(net.layer(0).out_dims, 43);
    (void)tracer.drain();
    tracer.enable();
    SimExecutor sim(net, compiled, kCfg);
    const SimResult r = sim.run(input, params);
    tracer.disable();
    const obs::TraceData simulated = tracer.drain();

    const auto sim_layers = layer_spans(simulated, "sim:" + net.name());
    const auto model_layers = layer_spans(model, "model:" + net.name());
    ASSERT_EQ(sim_layers.size(), model_layers.size());
    ASSERT_FALSE(sim_layers.empty());
    std::size_t next = 0;
    for (const Layer& l : net.layers()) {
      const TrafficCounters& c = r.layer_total(l.id);
      if (c.total_cycles == 0) continue;
      ASSERT_LT(next, sim_layers.size()) << l.name;
      const obs::Span& s = *sim_layers[next];
      const obs::Span& m = *model_layers[next];
      ++next;
      EXPECT_EQ(s.name, l.name);
      EXPECT_EQ(m.name, l.name);
      EXPECT_EQ(s.start, m.start) << l.name;
      EXPECT_EQ(s.dur, m.dur) << l.name;
      EXPECT_EQ(s.dur, c.total_cycles) << l.name;
      EXPECT_EQ(compute_within(simulated, s), compute_within(model, m))
          << l.name;
    }
    EXPECT_EQ(next, sim_layers.size());
  }
}

TEST(Trace, EventsAreOrderedAndNonNegative) {
  const Network net = zoo::tiny_cnn();
  CBrain brain(kCfg);
  const obs::TraceData data =
      model_spans(net, brain, kCfg, Policy::kFixedIntra);
  ASSERT_GT(data.spans.size(), 1u);
  const i64 total = data.spans.front().dur;
  i64 max_end = 0;
  for (const obs::Span& s : data.spans) {
    EXPECT_GE(s.start, 0);
    EXPECT_GT(s.dur, 0);
    max_end = std::max(max_end, s.start + s.dur);
  }
  EXPECT_EQ(max_end, total);
  // Layer spans appear in execution order and never overlap.
  const auto spans = layer_spans(data, "model:" + net.name());
  for (std::size_t i = 1; i < spans.size(); ++i)
    EXPECT_GE(spans[i]->start, spans[i - 1]->start + spans[i - 1]->dur);
}

TEST(Trace, SpansSeparateComputeFromStall) {
  const Network net = zoo::alexnet();
  CBrain brain(kCfg);
  const obs::TraceData data = model_spans(net, brain, kCfg);
  auto arg = [](const obs::Span& s, const std::string& key) {
    for (const auto& [k, v] : s.args)
      if (k == key) return std::stoll(v);
    ADD_FAILURE() << s.name << " has no " << key;
    return 0LL;
  };
  bool found_fc = false;
  for (const obs::Span* s : layer_spans(data, "model:" + net.name())) {
    const i64 compute = arg(*s, "compute_cycles");
    const i64 stall = arg(*s, "stall_cycles");
    EXPECT_EQ(compute + stall, s->dur) << s->name;
    if (s->name == "fc6") {
      found_fc = true;
      // FC6 streams 37.7M weight words through 2 w/c DRAM: ~99% stall —
      // the picture behind the paper's conv-only evaluation scope.
      EXPECT_GT(stall, 50 * compute);
    }
  }
  EXPECT_TRUE(found_fc);
}

TEST(Timeline, RendersBarsForEveryLayer) {
  const Network net = zoo::tiny_cnn();
  CBrain brain(kCfg);
  const std::string s =
      render_span_timeline(model_spans(net, brain, kCfg), {.width = 40});
  EXPECT_NE(s.find("conv1"), std::string::npos);
  EXPECT_NE(s.find("fc3"), std::string::npos);
  EXPECT_NE(s.find("#"), std::string::npos);
  EXPECT_NE(s.find("cycles"), std::string::npos);
}

TEST(Timeline, EmptyTraceHandled) {
  EXPECT_EQ(render_span_timeline(obs::TraceData{}), "(empty trace)\n");
}

}  // namespace
}  // namespace cbrain
