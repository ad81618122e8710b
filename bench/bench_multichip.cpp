// Extension — multi-chip scale-out (DESIGN.md §16). Shards each zoo net
// across 1/2/4/8 simulated C-Brain chips under both partition strategies
// and reports the simulated throughput scaling curve: steady-state
// cycles/image from the plan, measured makespan over a short image
// stream, simulated images/s, parallel efficiency vs the single-chip run,
// and the interconnect traffic the partition paid for it. Every
// multi-chip output is byte-compared against the single-chip oracle
// before its row is printed — a scaling number from a wrong answer is
// worthless.
//
// All reported numbers are simulated cycles (pure functions of network,
// config and plan), so the curve is byte-stable across hosts and --jobs;
// only host wall time varies. `--perf-json=FILE` writes the points as a
// "multichip" array for tools/bench_compare.py; `--quick` drops the
// large nets and the 8-chip column.
#include <cstring>
#include <fstream>

#include "bench_common.hpp"
#include "cbrain/common/json.hpp"
#include "cbrain/engine/engine.hpp"
#include "cbrain/multichip/executor.hpp"
#include "cbrain/ref/params.hpp"

using namespace cbrain;
using namespace cbrain::bench;

namespace {

struct Point {
  std::string net;
  i64 chips = 0;
  std::string partition;
  i64 steady_cycles = 0;
  i64 makespan_cycles = 0;
  i64 images = 0;
  double images_per_s = 0.0;  // simulated
  double efficiency = 0.0;    // images_per_s / (chips * single-chip rate)
  i64 xfer_words = 0;
};

Point run_point(engine::Engine& engine, const Network& net,
                const NetParamsData<Fixed16>& params,
                const std::vector<Tensor3<Fixed16>>& inputs,
                const Tensor3<Fixed16>& oracle, i64 chips,
                multichip::PartitionStrategy strategy) {
  multichip::MultiChipOptions mo;
  mo.plan.chips = chips;
  mo.plan.strategy = strategy;
  mo.fidelity = Fidelity::kFunctional;
  multichip::MultiChipExecutor mc(engine, net, mo);
  mc.load_params(params);
  const std::vector<SimResult> outs = mc.infer_many(inputs);
  CBRAIN_CHECK(outs.front().final_output.size() == oracle.size() &&
                   std::memcmp(outs.front().final_output.raw_data(),
                               oracle.raw_data(),
                               static_cast<std::size_t>(oracle.size()) *
                                   sizeof(Fixed16)) == 0,
               "multi-chip output diverged from the single-chip oracle");
  const multichip::MultiChipStats st = mc.stats();
  Point p;
  p.net = net.name();
  p.chips = chips;
  p.partition = partition_strategy_name(mc.plan().strategy);
  p.steady_cycles = st.steady_cycles;
  p.makespan_cycles = st.makespan_cycles;
  p.images = st.images;
  const double ms = engine.config().cycles_to_ms(st.makespan_cycles);
  p.images_per_s = ms > 0.0 ? static_cast<double>(st.images) / ms * 1e3 : 0.0;
  p.xfer_words = st.xfer_words;
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") quick = true;
    else if (arg.rfind("--perf-json=", 0) == 0)
      json_path = arg.substr(std::strlen("--perf-json="));
    else if (arg == "--perf-json")
      json_path = "BENCH_multichip.json";
  }

  print_header("Ext-MultiChip", "scale-out across simulated chips");

  const AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  engine::Engine engine(config);
  std::vector<Network> nets;
  nets.push_back(zoo::alexnet());
  if (!quick) {
    nets.push_back(zoo::resnet18());
    nets.push_back(zoo::mobilenetv1());
  }
  const std::vector<i64> chip_counts =
      quick ? std::vector<i64>{1, 2, 4} : std::vector<i64>{1, 2, 4, 8};
  // A short stream so pipeline plans reach steady state (fill + drain are
  // amortized over 2x the deepest chip count's stages).
  const i64 images = quick ? 4 : 16;

  std::vector<Point> points;
  Table t({"net", "chips", "partition", "steady cy/img", "makespan",
           "img/s (sim)", "efficiency", "xfer words"});
  for (const Network& net : nets) {
    const auto params = init_net_params<Fixed16>(net, 42);
    std::vector<Tensor3<Fixed16>> inputs;
    for (i64 i = 0; i < images; ++i)
      inputs.push_back(random_input<Fixed16>(
          net.layer(0).out_dims,
          (42 ^ 0x1234) + 0x9E3779B97F4A7C15ull * static_cast<u64>(i)));
    auto session = engine.open_session(net, Policy::kAdaptive2, params,
                                       Fidelity::kFunctional);
    const Tensor3<Fixed16> oracle = session->infer(inputs[0]).final_output;

    double single_rate = 0.0;
    for (i64 chips : chip_counts) {
      for (multichip::PartitionStrategy s :
           {multichip::PartitionStrategy::kPipeline,
            multichip::PartitionStrategy::kShard}) {
        Point p = run_point(engine, net, params, inputs, oracle, chips, s);
        if (chips == 1) {
          single_rate = p.images_per_s;
          p.efficiency = 1.0;
        } else {
          p.efficiency =
              single_rate > 0.0
                  ? p.images_per_s /
                        (static_cast<double>(chips) * single_rate)
                  : 0.0;
        }
        t.add_row({p.net, std::to_string(p.chips), p.partition,
                   sci(p.steady_cycles), sci(p.makespan_cycles),
                   fmt_double(p.images_per_s, 1),
                   fmt_double(p.efficiency, 2), sci(p.xfer_words)});
        points.push_back(std::move(p));
        if (chips == 1) break;  // both strategies collapse to one chip
      }
    }
  }
  std::printf("%s\n", t.to_string().c_str());

  ExperimentLog log("Ext-MultiChip", "data-level parallelism across chips");
  for (const Point& p : points) {
    if (p.net != nets.front().name() || p.chips != chip_counts.back())
      continue;
    log.point("AlexNet " + std::to_string(p.chips) + "-chip " + p.partition,
              "— (not in the paper)",
              fmt_double(p.efficiency, 2) + " efficiency",
              "outputs byte-identical to 1 chip");
  }
  std::printf("%s\n", log.to_string().c_str());

  if (!json_path.empty()) {
    JsonWriter w;
    w.begin_object();
    w.kv("schema_version", 1);
    w.kv("quick", quick);
    w.key("multichip").begin_array();
    for (const Point& p : points) {
      w.begin_object();
      w.kv("net", p.net);
      w.kv("policy", "adap-2");
      w.kv("chips", p.chips);
      w.kv("partition", p.partition);
      w.kv("steady_cycles", p.steady_cycles);
      w.kv("makespan_cycles", p.makespan_cycles);
      w.kv("images", p.images);
      w.kv("sim_images_per_s", p.images_per_s);
      w.kv("efficiency", p.efficiency);
      w.kv("xfer_words", p.xfer_words);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    std::ofstream f(json_path);
    if (!f) {
      std::fprintf(stderr, "bench_multichip: cannot write %s\n",
                   json_path.c_str());
      return 1;
    }
    f << w.str() << "\n";
    std::printf("wrote %s (%zu multichip points)\n", json_path.c_str(),
                points.size());
  }
  return 0;
}
