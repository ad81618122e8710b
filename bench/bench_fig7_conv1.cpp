// Fig. 7 — execution cycles of layer Conv1 under ideal / inter / intra
// (unrolling) / kernel-partition, for PE widths 16-16 and 32-32 across the
// four benchmark networks. Paper headline: partition nearly reaches the
// ideal bound and outperforms inter and intra by 5.8x / 2.1x on average.
//
// Also prints the Table 2 (benchmark) and Table 3 (accelerator) parameter
// tables this experiment is configured from.
#include "bench_common.hpp"
#include "cbrain/nn/workload.hpp"
#include "sweep.hpp"

using namespace cbrain;
using namespace cbrain::bench;

int main(int argc, char** argv) {
  init_bench_jobs(argc, argv);
  print_header("Fig.7", "Conv1 execution cycles per scheme");

  // --- Table 2: benchmark networks -------------------------------------
  {
    Table t({"network", "conv1 (Din,k,s,Dout)", "#conv layers",
             "kernel sizes"});
    for (const Network& net : zoo::paper_benchmarks()) {
      std::vector<i64> ks;
      for (LayerId id : net.conv_layer_ids()) {
        const i64 k = net.layer(id).conv().k;
        if (std::find(ks.begin(), ks.end(), k) == ks.end()) ks.push_back(k);
      }
      std::string kstr;
      for (i64 k : ks) {
        if (!kstr.empty()) kstr += ',';
        kstr += std::to_string(k);
      }
      t.add_row({net.name(), conv1_signature(net),
                 std::to_string(net.conv_layer_ids().size()), kstr});
    }
    std::printf("Table 2 parameters as encoded in the zoo:\n%s\n",
                t.to_string().c_str());
  }
  std::printf("Table 3 configs: %s\n                 %s\n\n",
              AcceleratorConfig::paper_16_16().to_string().c_str(),
              AcceleratorConfig::paper_32_32().to_string().c_str());

  // --- Fig. 7 proper -----------------------------------------------------
  const Policy kSchemes[] = {Policy::kFixedInter, Policy::kFixedIntra,
                             Policy::kFixedPartition};
  const AcceleratorConfig configs[] = {AcceleratorConfig::paper_16_16(),
                                       AcceleratorConfig::paper_32_32()};
  const std::vector<Network> fulls = zoo::paper_benchmarks();
  std::vector<Network> conv1s;
  for (const Network& full : fulls) conv1s.push_back(conv1_network(full));

  // One sweep point per (config, net, scheme); each thunk owns its CBrain.
  std::vector<std::function<i64()>> points;
  for (const AcceleratorConfig& config : configs)
    for (const Network& net : conv1s)
      for (const Policy scheme : kSchemes)
        points.push_back([&config, &net, scheme] {
          CBrain brain(config);
          return brain.evaluate(net, scheme).cycles();
        });
  const std::vector<i64> cycles_flat = sweep<i64>(points);

  std::vector<double> sp_vs_inter, sp_vs_intra, part_vs_ideal;
  std::size_t pt = 0;
  for (const AcceleratorConfig& config : configs) {
    Table t({"net (conv1)", "ideal", "inter", "intra", "partition",
             "part/ideal", "inter/part", "intra/part"});
    for (std::size_t ni = 0; ni < fulls.size(); ++ni) {
      const i64 ideal = ideal_network_cycles(conv1s[ni], config);
      i64 cycles[3] = {};
      for (int s = 0; s < 3; ++s) cycles[s] = cycles_flat[pt++];
      const double vs_ideal =
          static_cast<double>(cycles[2]) / static_cast<double>(ideal);
      const double vs_inter =
          static_cast<double>(cycles[0]) / static_cast<double>(cycles[2]);
      const double vs_intra =
          static_cast<double>(cycles[1]) / static_cast<double>(cycles[2]);
      sp_vs_inter.push_back(vs_inter);
      sp_vs_intra.push_back(vs_intra);
      part_vs_ideal.push_back(vs_ideal);
      t.add_row({net_label(fulls[ni].name()), sci(ideal), sci(cycles[0]),
                 sci(cycles[1]), sci(cycles[2]), fmt_double(vs_ideal, 2),
                 fmt_speedup(vs_inter), fmt_speedup(vs_intra)});
    }
    std::printf("PE %lld-%lld:\n%s\n", static_cast<long long>(config.tin),
                static_cast<long long>(config.tout), t.to_string().c_str());
    export_csv(t, "fig7_conv1_" + std::to_string(config.tin) + "x" +
                      std::to_string(config.tout));
  }

  // First four entries of each vector are the 16-16 points.
  auto half_geomean = [](const std::vector<double>& v, bool first_half) {
    const std::size_t n = v.size() / 2;
    std::vector<double> h(first_half ? v.begin() : v.begin() + n,
                          first_half ? v.begin() + n : v.end());
    return geomean(h);
  };
  ExperimentLog log("Fig.7", "Conv1: partition vs inter/intra/ideal");
  log.point("partition speedup over inter (avg)", "5.8x",
            fmt_speedup(half_geomean(sp_vs_inter, true)) + " @16-16, " +
                fmt_speedup(half_geomean(sp_vs_inter, false)) + " @32-32",
            "geomean over the 4 networks");
  log.point("partition speedup over intra (avg)", "2.1x",
            fmt_speedup(half_geomean(sp_vs_intra, true)) + " @16-16, " +
                fmt_speedup(half_geomean(sp_vs_intra, false)) + " @32-32",
            "intra is DMA-bound, so it does not scale to 32-32");
  double max_gap = 0;
  for (double v : part_vs_ideal) max_gap = std::max(max_gap, v);
  log.point("partition vs ideal bound", "almost reach the upper bound",
            "worst gap " + fmt_double(max_gap, 2) + "x",
            "16-16 gap = kernel zero padding; 32-32 gap = input DMA");
  std::printf("%s\n", log.to_string().c_str());
  return 0;
}
