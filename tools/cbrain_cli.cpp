// cbrain_cli — command-line front end for the C-Brain library.
//
//   cbrain_cli list
//   cbrain_cli show      <net>
//   cbrain_cli evaluate  <net> [--policy=P] [--pe=TinxTout] [--dram=W] [--fc]
//   cbrain_cli compare   <net> [--pe=TinxTout]
//   cbrain_cli disasm    <net> [--policy=P] [--max=N]
//   cbrain_cli simulate  <net> [--policy=P] [--seed=N] [--pe=TinxTout]
//                          [--fidelity=cycle|functional]
//                          [--chips=N --partition=auto|pipeline|shard]
//   cbrain_cli serve-bench <net> [--policy=P] [--requests=N] [--jobs=N]
//                          [--seed=N] [--baseline]
//                          [--fidelity=cycle|functional|both]
//                          [--chips=N --partition=auto|pipeline|shard]
//   cbrain_cli fidelity-check <net> [--policy=P] [--seed=N]
//   cbrain_cli oracle    <net> [--metric=cycles|energy]
//   cbrain_cli fault-campaign <net[,net...]> [--site=S,..] [--rate=R,..]
//                             [--recovery=none|parity|ecc,..] [--seed=N]
//
// <net> is a zoo name (alexnet, googlenet, vgg16, nin, tiny_cnn,
// scheme_mix, mini_inception) or a path to a network spec file.
//
// Exit codes: 0 success, 1 command-reported failure (e.g. verify found
// issues), 2 usage / bad flag value, 3 invalid network spec or
// unresolvable network, 4 internal error (invariant violation or
// unexpected exception).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>

#include "cbrain/common/check.hpp"
#include "cbrain/common/strings.hpp"
#include "cbrain/fault/campaign.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/core/cbrain.hpp"
#include "cbrain/core/oracle.hpp"
#include "cbrain/func/crosscheck.hpp"
#include "cbrain/compiler/verifier.hpp"
#include "cbrain/isa/disassembler.hpp"
#include "cbrain/multichip/executor.hpp"
#include "cbrain/nn/dot_export.hpp"
#include "cbrain/nn/spec_parser.hpp"
#include "cbrain/nn/workload.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/obs/chrome_trace.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/obs/tracer.hpp"
#include "cbrain/report/json_export.hpp"
#include "cbrain/report/table.hpp"
#include "cbrain/report/timeline.hpp"
#include "cbrain/simd/simd.hpp"

namespace cbrain::cli {
namespace {

struct Options {
  std::string command;
  std::string net;
  std::map<std::string, std::string> flags;

  bool has(const std::string& f) const { return flags.count(f) != 0; }
  std::string get(const std::string& f, const std::string& dflt) const {
    const auto it = flags.find(f);
    return it == flags.end() ? dflt : it->second;
  }
  i64 get_i64(const std::string& f, i64 dflt) const {
    const auto it = flags.find(f);
    return it == flags.end() ? dflt : std::stoll(it->second);
  }
};

// Every flag any command reads. A flag outside this table is a usage
// error, so a misspelled or retired flag fails loudly instead of being
// silently ignored.
constexpr const char* kKnownFlags[] = {
    "baseline", "batch", "chips", "csv", "dram", "events", "fc",
    "fidelity", "jobs", "json", "max", "metric", "metrics-out",
    "partition", "pe", "policy", "rate", "recovery", "requests", "seed",
    "simd", "site", "trace-out", "width"};

int usage() {
  std::fprintf(
      stderr,
      "usage: cbrain_cli <command> [<net>] [--flag=value ...]\n"
      "commands: list | show | evaluate | compare | disasm | simulate | "
      "serve-bench | fidelity-check | oracle | timeline | "
      "verify | dot | fault-campaign\n"
      "flags: --policy=inter|intra|partition|adap-1|adap-2  --pe=16x16\n"
      "       --dram=<words/cycle>  --fc  --batch=N  --json  --seed=N  "
      "--max=N\n"
      "       --metric=cycles|energy  --jobs=N (worker threads; default "
      "hardware concurrency, 1 = serial;\n"
      "        requests fill the pool first, a lone request's layers fan "
      "out across it)\n"
      "       --simd=auto|avx2|avxvnni|scalar (kernel backend; all "
      "produce bit-identical results;\n"
      "        default: CBRAIN_SIMD env var, else best supported)\n"
      "       --trace-out=FILE (Chrome trace-event JSON of the run — load "
      "in Perfetto)\n"
      "       --metrics-out=FILE (metrics registry dump; .prom extension "
      "selects\n"
      "        Prometheus text format, anything else JSON)\n"
      "       --fidelity=cycle|functional (execution tier: cycle-exact "
      "oracle or the\n"
      "        bit-identical fast path with model-estimated counters; "
      "default cycle)\n"
      "       --chips=N (simulate|serve-bench: scale out across N "
      "simulated chips;\n"
      "        outputs stay bit-identical to one chip)  "
      "--partition=auto|pipeline|shard\n"
      "serve-bench flags: --requests=N (default 8)  --baseline (also time "
      "the\n"
      "       per-call simulate path and report the session speedup)\n"
      "       --fidelity=both (serve at both tiers, report side by side)\n"
      "       --batch=N (execute requests as N-image infer_batch calls, "
      "default 1;\n"
      "        outputs byte-identical at any N)\n"
      "fidelity-check: cross-validate the tiers — bit-compare outputs and "
      "print the\n"
      "       per-layer model-vs-sim cycle/energy error table (exit 1 on "
      "divergence)\n"
      "fault-campaign flags: --site=input,weight,bias,accum,dram,dma,pe\n"
      "       --rate=<faults/Mword,...>  --recovery=none,parity,ecc\n"
      "       --seed=N  --events (print the fault event log)  --csv\n"
      "exit codes: 0 ok, 1 failure, 2 usage, 3 bad network spec, "
      "4 internal\n");
  return 2;
}

std::optional<Network> resolve_net(const std::string& name) {
  if (name == "alexnet") return zoo::alexnet();
  if (name == "googlenet") return zoo::googlenet();
  if (name == "vgg16") return zoo::vgg16();
  if (name == "nin") return zoo::nin();
  if (name == "tiny_cnn") return zoo::tiny_cnn();
  if (name == "scheme_mix") return zoo::scheme_mix_cnn();
  if (name == "mini_inception") return zoo::mini_inception();
  if (name == "lenet5") return zoo::lenet5();
  if (name == "zfnet") return zoo::zfnet();
  if (name == "squeezenet") return zoo::squeezenet();
  if (name == "resnet18") return zoo::resnet18();
  if (name == "mobilenetv1") return zoo::mobilenetv1();
  auto r = load_network_spec_file(name);
  if (!r.is_ok()) {
    std::fprintf(stderr, "error: cannot resolve network '%s': %s\n",
                 name.c_str(), r.status().to_string().c_str());
    return std::nullopt;
  }
  return std::move(r).value();
}

std::optional<Policy> resolve_policy(const std::string& name) {
  for (Policy p : paper_policies())
    if (name == policy_name(p)) return p;
  if (name == "ideal") return Policy::kIdeal;
  std::fprintf(stderr, "error: unknown policy '%s'\n", name.c_str());
  return std::nullopt;
}

// `allow_both`: serve-bench accepts --fidelity=both (returned as nullopt
// with ok=true); everywhere else "both" is a usage error.
struct FidelityChoice {
  bool ok = false;
  bool both = false;
  Fidelity fidelity = Fidelity::kCycle;
};

FidelityChoice resolve_fidelity(const Options& opt, bool allow_both = false) {
  FidelityChoice c;
  const std::string name = opt.get("fidelity", "cycle");
  if (allow_both && name == "both") {
    c.ok = c.both = true;
    return c;
  }
  const auto f = parse_fidelity(name);
  if (!f) {
    std::fprintf(stderr, "error: --fidelity=%s is not cycle|functional%s\n",
                 name.c_str(), allow_both ? "|both" : "");
    return c;
  }
  c.ok = true;
  c.fidelity = *f;
  return c;
}

// --chips / --partition (simulate, serve-bench). A bad value is a usage
// error (exit 2), same as any other malformed flag.
struct MultiChipChoice {
  bool ok = false;
  i64 chips = 1;
  multichip::PartitionStrategy strategy =
      multichip::PartitionStrategy::kAuto;
};

MultiChipChoice resolve_multichip(const Options& opt) {
  MultiChipChoice c;
  c.chips = opt.get_i64("chips", 1);
  if (const Status s = multichip::validate_chip_count(c.chips);
      !s.is_ok()) {
    std::fprintf(stderr, "error: --chips: %s\n", s.to_string().c_str());
    return c;
  }
  const auto ps =
      multichip::parse_partition_strategy(opt.get("partition", "auto"));
  if (!ps.is_ok()) {
    std::fprintf(stderr, "error: --partition: %s\n",
                 ps.status().to_string().c_str());
    return c;
  }
  c.strategy = ps.value();
  c.ok = true;
  return c;
}

multichip::MultiChipOptions multichip_options(const MultiChipChoice& mcc,
                                              Policy policy,
                                              Fidelity fidelity) {
  multichip::MultiChipOptions mo;
  mo.plan.chips = mcc.chips;
  mo.plan.strategy = mcc.strategy;
  mo.plan.policy = policy;
  mo.fidelity = fidelity;
  return mo;
}

AcceleratorConfig resolve_config(const Options& opt) {
  AcceleratorConfig config = AcceleratorConfig::paper_16_16();
  const std::string pe = opt.get("pe", "16x16");
  const auto x = pe.find('x');
  if (x != std::string::npos) {
    config = AcceleratorConfig::with_pe(std::stoll(pe.substr(0, x)),
                                        std::stoll(pe.substr(x + 1)));
  }
  if (opt.has("dram"))
    config.dram.words_per_cycle = std::stod(opt.get("dram", "2"));
  return config;
}

ModelOptions resolve_model_options(const Options& opt) {
  ModelOptions mo;
  mo.include_fc = opt.has("fc");
  mo.batch = std::max<i64>(1, opt.get_i64("batch", 1));
  return mo;
}

int cmd_list() {
  Table t({"network", "conv1 (Din,k,s,Dout)", "#conv", "MACs", "params"});
  for (const Network& net : zoo::paper_benchmarks()) {
    const NetworkWorkload w = analyze_workload(net);
    t.add_row({net.name(), conv1_signature(net),
               std::to_string(net.conv_layer_ids().size()),
               with_commas(static_cast<u64>(w.total_macs)),
               with_commas(static_cast<u64>(w.total_weight_words))});
  }
  std::printf("%s", t.to_string().c_str());
  std::printf("\nextra: lenet5, zfnet, squeezenet, resnet18, mobilenetv1; "
              "test networks: tiny_cnn, scheme_mix, mini_inception\n");
  return 0;
}

int cmd_show(const Network& net) {
  std::printf("%s\n", net.to_string().c_str());
  const NetworkWorkload w = analyze_workload(net);
  std::printf("total MACs: %s (%.1f%% in conv)\nweights: %s words (%s)\n",
              with_commas(static_cast<u64>(w.total_macs)).c_str(),
              w.conv_mac_fraction() * 100.0,
              with_commas(static_cast<u64>(w.total_weight_words)).c_str(),
              human_bytes(static_cast<u64>(w.total_weight_words) * 2)
                  .c_str());
  std::printf("\nspec:\n%s", network_to_spec(net).c_str());
  return 0;
}

int cmd_evaluate(const Network& net, const Options& opt) {
  const auto policy = resolve_policy(opt.get("policy", "adap-2"));
  if (!policy) return 2;
  const AcceleratorConfig config = resolve_config(opt);
  CBrain brain(config, resolve_model_options(opt));
  const NetworkModelResult r = brain.evaluate(net, *policy);
  if (opt.has("json")) {
    std::printf("%s\n", to_json(r).c_str());
    return 0;
  }
  std::printf("%s under %s on %s\n\n", net.name().c_str(),
              policy_name(*policy), config.to_string().c_str());
  Table t({"layer", "kind", "scheme", "cycles", "util", "buf words",
           "dram words", "energy (uJ)"});
  for (const auto& lr : r.layers) {
    if (lr.kind == LayerKind::kInput || lr.kind == LayerKind::kConcat)
      continue;
    t.add_row({lr.name, layer_kind_name(lr.kind),
               lr.kind == LayerKind::kConv ? scheme_name(lr.scheme) : "-",
               with_commas(static_cast<u64>(lr.counters.total_cycles)),
               fmt_double(lr.utilization(), 2),
               with_commas(static_cast<u64>(lr.counters.buffer_accesses())),
               with_commas(static_cast<u64>(lr.counters.dram_words())),
               fmt_double(lr.energy.total_uj(), 2)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("total: %s cycles = %.3f ms @%.1f GHz, %.2f uJ\n",
              with_commas(static_cast<u64>(r.cycles())).c_str(),
              r.milliseconds(), config.clock_ghz, r.energy.total_uj());
  return 0;
}

int cmd_compare(const Network& net, const Options& opt) {
  const AcceleratorConfig config = resolve_config(opt);
  CBrain brain(config, resolve_model_options(opt));
  const PolicyComparison cmp = brain.compare_policies(net);
  Table t({"policy", "cycles", "ms", "buffer words", "energy (uJ)",
           "vs inter"});
  t.add_row({"ideal",
             with_commas(static_cast<u64>(cmp.ideal_cycles)),
             fmt_double(config.cycles_to_ms(cmp.ideal_cycles), 3), "-", "-",
             "-"});
  for (const auto& r : cmp.results) {
    t.add_row({policy_name(r.policy),
               with_commas(static_cast<u64>(r.cycles())),
               fmt_double(r.milliseconds(), 3),
               with_commas(static_cast<u64>(r.totals.buffer_accesses())),
               fmt_double(r.energy.total_uj(), 2),
               fmt_speedup(cmp.speedup(r.policy, Policy::kFixedInter))});
  }
  std::printf("%s on %s\n\n%s", net.name().c_str(),
              config.to_string().c_str(), t.to_string().c_str());
  return 0;
}

int cmd_disasm(const Network& net, const Options& opt) {
  const auto policy = resolve_policy(opt.get("policy", "adap-2"));
  if (!policy) return 2;
  CBrain brain(resolve_config(opt));
  const CompiledNetwork& compiled = brain.compile(net, *policy);
  std::printf("%s", disassemble(compiled.program, net,
                                opt.get_i64("max", 200))
                        .c_str());
  const ProgramStats s = compiled.program.stats();
  std::printf("\n%lld instructions: %lld loads (%s words), %lld conv, "
              "%lld pool, %lld fc, %lld host, %lld barriers\n",
              static_cast<long long>(s.instructions),
              static_cast<long long>(s.loads),
              with_commas(static_cast<u64>(s.load_words)).c_str(),
              static_cast<long long>(s.conv_tiles),
              static_cast<long long>(s.pool_tiles),
              static_cast<long long>(s.fc_tiles),
              static_cast<long long>(s.host_ops),
              static_cast<long long>(s.barriers));
  return 0;
}

int cmd_simulate(const Network& net, const Options& opt) {
  const auto policy = resolve_policy(opt.get("policy", "adap-2"));
  if (!policy) return 2;
  const FidelityChoice fid = resolve_fidelity(opt);
  if (!fid.ok) return 2;
  const NetworkWorkload w = analyze_workload(net);
  // AlexNet-scale nets (~724M MACs, a second or two of host time) are in
  // scope — tracing a full AlexNet inference is the observability demo.
  // VGG-scale (15.5G MACs) stays out of the cycle tier; the functional
  // tier computes the same bytes without simulated buffers, so it takes
  // any net.
  if (fid.fidelity == Fidelity::kCycle && w.total_macs > 2'000'000'000) {
    std::fprintf(stderr,
                 "error: %s has %lld MACs — too large for cycle-level "
                 "simulation; use 'evaluate' (analytical) or "
                 "--fidelity=functional\n",
                 net.name().c_str(),
                 static_cast<long long>(w.total_macs));
    return 2;
  }
  const MultiChipChoice mcc = resolve_multichip(opt);
  if (!mcc.ok) return 2;
  if (mcc.chips > 1) {
    // Multi-chip package: same seeds, same bytes as the single-chip run
    // below — only the partitioning, the clocks and the interconnect
    // traffic change.
    const AcceleratorConfig config = resolve_config(opt);
    engine::Engine engine(config);
    multichip::MultiChipExecutor mc(
        engine, net, multichip_options(mcc, *policy, fid.fidelity));
    const auto seed = static_cast<u64>(opt.get_i64("seed", 42));
    const auto params = init_net_params<Fixed16>(net, seed);
    const auto input =
        random_input<Fixed16>(net.layer(0).out_dims, seed ^ 0x1234);
    mc.load_params(params);
    const SimResult r = mc.infer(input);
    std::printf("%s\n", mc.plan().to_string().c_str());
    Table t({"layer", "cycles", "buf reads", "buf writes", "dram words"});
    for (const Layer& l : net.layers()) {
      if (l.kind == LayerKind::kInput) continue;
      const TrafficCounters& c = r.layer_total(l.id);
      t.add_row({l.name, with_commas(static_cast<u64>(c.total_cycles)),
                 with_commas(static_cast<u64>(c.buffer_reads())),
                 with_commas(static_cast<u64>(c.buffer_writes())),
                 with_commas(static_cast<u64>(c.dram_words()))});
    }
    std::printf("%s\n", t.to_string().c_str());
    const multichip::MultiChipStats st = mc.stats();
    for (std::size_t c = 0; c < st.chips.size(); ++c)
      std::printf("chip %zu: compute %s cy, xfer %s cy\n", c,
                  with_commas(static_cast<u64>(st.chips[c].compute_cycles))
                      .c_str(),
                  with_commas(static_cast<u64>(st.chips[c].xfer_cycles))
                      .c_str());
    std::printf("makespan %s cycles (plan steady %s); interconnect:\n%s",
                with_commas(static_cast<u64>(st.makespan_cycles)).c_str(),
                with_commas(static_cast<u64>(st.steady_cycles)).c_str(),
                mc.interconnect().to_string().c_str());
    std::printf("final output (%s):",
                r.final_output.dims().to_string().c_str());
    const i64 n = std::min<i64>(10, r.final_output.size());
    for (i64 i = 0; i < n; ++i)
      std::printf(" %.4f",
                  r.final_output.storage()[static_cast<std::size_t>(i)]
                      .to_double());
    std::printf("%s\n", r.final_output.size() > n ? " ..." : "");
    return 0;
  }
  CBrain brain(resolve_config(opt));
  const SimResult r = brain.simulate(net, *policy, opt.get_i64("seed", 42),
                                     fid.fidelity);
  if (fid.fidelity == Fidelity::kFunctional)
    std::printf("fidelity=functional: outputs exact, counters are "
                "analytical estimates\n");
  Table t({"layer", "cycles", "buf reads", "buf writes", "dram words"});
  TrafficCounters totals;
  for (const Layer& l : net.layers()) {
    const TrafficCounters& c = r.layer_total(l.id);
    totals += c;
    if (l.kind == LayerKind::kInput) continue;
    t.add_row({l.name, with_commas(static_cast<u64>(c.total_cycles)),
               with_commas(static_cast<u64>(c.buffer_reads())),
               with_commas(static_cast<u64>(c.buffer_writes())),
               with_commas(static_cast<u64>(c.dram_words()))});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("final output (%s):", r.final_output.dims().to_string().c_str());
  const i64 n = std::min<i64>(10, r.final_output.size());
  for (i64 i = 0; i < n; ++i)
    std::printf(" %.4f", r.final_output.storage()[static_cast<std::size_t>(
                             i)].to_double());
  std::printf("%s\n", r.final_output.size() > n ? " ..." : "");
  return 0;
}

// Serving benchmark: N requests through a weight-resident session pool.
// Unlike `simulate` there is no MAC-count cap — the whole point is to
// measure the amortized cost of streaming many inputs through a machine
// that was built and weight-loaded once, so AlexNet-scale nets are fair
// game (one request costs the same as one `simulate`, minus setup).
int cmd_serve_bench(const Network& net, const Options& opt) {
  using Clock = std::chrono::steady_clock;
  const auto policy = resolve_policy(opt.get("policy", "adap-2"));
  if (!policy) return 2;
  const FidelityChoice fid = resolve_fidelity(opt, /*allow_both=*/true);
  if (!fid.ok) return 2;
  const AcceleratorConfig config = resolve_config(opt);
  const i64 requests = std::max<i64>(1, opt.get_i64("requests", 8));
  const auto seed = static_cast<u64>(opt.get_i64("seed", 42));
  const i64 jobs = opt.get_i64("jobs", 0);
  // --batch=N chunks the request stream into fixed-size groups (ragged
  // last), each executed as one multi-image Session::infer_batch call
  // via engine::run_batches (default 1; 0 reads as 1). Outputs are
  // byte-identical at any batch size.
  const i64 exec_batch = std::max<i64>(1, opt.get_i64("batch", 1));

  const auto params = init_net_params<Fixed16>(net, seed);
  std::vector<Tensor3<Fixed16>> inputs;
  inputs.reserve(static_cast<std::size_t>(requests));
  for (i64 i = 0; i < requests; ++i)
    inputs.push_back(random_input<Fixed16>(
        net.layer(0).out_dims,
        (seed ^ 0x1234) + 0x9E3779B97F4A7C15ull * static_cast<u64>(i)));

  engine::Engine engine(config);

  const MultiChipChoice mcc = resolve_multichip(opt);
  if (!mcc.ok) return 2;
  if (mcc.chips > 1) {
    // N-chip package serving the same request stream. Pipeline plans
    // overlap images across stages; shard plans gang all chips on each
    // image. With --baseline the single-chip session path runs too and
    // the outputs are byte-compared.
    if (fid.both) {
      std::fprintf(stderr,
                   "error: --chips combines with one tier at a time, not "
                   "--fidelity=both\n");
      return 2;
    }
    using Clock2 = std::chrono::steady_clock;
    multichip::MultiChipExecutor mc(
        engine, net, multichip_options(mcc, *policy, fid.fidelity));
    mc.load_params(params);
    const auto t0 = Clock2::now();
    const std::vector<SimResult> results = mc.infer_many(inputs, jobs);
    const double wall_ms =
        std::chrono::duration<double, std::milli>(Clock2::now() - t0)
            .count();
    const multichip::MultiChipStats st = mc.stats();
    std::printf("serve-bench %s under %s on %s\n", net.name().c_str(),
                policy_name(*policy), config.to_string().c_str());
    std::printf("%s", mc.plan().to_string().c_str());
    const double sim_tput =
        st.makespan_cycles > 0
            ? static_cast<double>(requests) /
                  config.cycles_to_ms(st.makespan_cycles) * 1e3
            : 0.0;
    std::printf("chips=%lld requests=%lld  wall %.2f s  makespan %s "
                "cycles  %.1f images/s simulated\n",
                static_cast<long long>(mcc.chips),
                static_cast<long long>(requests), wall_ms / 1e3,
                with_commas(static_cast<u64>(st.makespan_cycles)).c_str(),
                sim_tput);
    std::printf("interconnect: %s words, %.2f uJ\n",
                with_commas(static_cast<u64>(st.xfer_words)).c_str(),
                st.xfer_energy_pj / 1e6);
    if (opt.has("baseline")) {
      const std::vector<SimResult> single = engine.run_many(
          net, *policy, params, inputs, jobs, nullptr, fid.fidelity);
      i64 single_cycles = 0;
      for (const TrafficCounters& c : single.front().per_layer)
        single_cycles += c.total_cycles;
      for (i64 i = 0; i < requests; ++i) {
        const auto& a =
            single[static_cast<std::size_t>(i)].final_output.storage();
        const auto& b = results[static_cast<std::size_t>(i)]
                            .final_output.storage();
        if (a.size() != b.size() ||
            std::memcmp(a.data(), b.data(),
                        a.size() * sizeof(Fixed16)) != 0) {
          std::fprintf(stderr,
                       "error: %lld-chip output diverges from the "
                       "single-chip oracle at request %lld\n",
                       static_cast<long long>(mcc.chips),
                       static_cast<long long>(i));
          return 1;
        }
      }
      const double scaling =
          st.steady_cycles > 0
              ? static_cast<double>(single_cycles) /
                    static_cast<double>(st.steady_cycles)
              : 0.0;
      std::printf("single-chip oracle: outputs byte-identical; "
                  "steady-state speedup %.2fx over 1 chip\n",
                  scaling);
    }
    return 0;
  }

  // One tier through the session pool. Per-tier latency percentiles come
  // from the batch's own ServeStats, not the (cumulative, tier-mixing)
  // registry histograms.
  struct TierRun {
    engine::ServeStats stats;
    std::vector<SimResult> results;
  };
  auto serve_tier = [&](Fidelity f) {
    engine.compile(net, *policy, f);  // warm: serving, not compilation
    std::vector<std::vector<i64>> batches;
    for (i64 i = 0; i < requests; i += exec_batch) {
      batches.emplace_back();
      for (i64 j = i; j < std::min(requests, i + exec_batch); ++j)
        batches.back().push_back(j);
    }
    TierRun run;
    run.results = engine.run_batches(net, *policy, params, inputs, batches,
                                     jobs, &run.stats, f);
    return run;
  };
  // One request carries one image in this harness, so requests/s and
  // images/s coincide — both are printed to keep the unit explicit next
  // to the batched numbers (a batch of B images is still B requests).
  auto print_tier = [](const char* label, const engine::ServeStats& s) {
    std::printf("%-10s wall %.2f s   %.3f requests/s (%.3f images/s)   "
                "latency p50 %.1f ms  p99 %.1f ms\n",
                label, s.wall_ms / 1e3, s.infer_per_s(), s.infer_per_s(),
                s.latency_percentile_ms(0.50),
                s.latency_percentile_ms(0.99));
  };

  std::printf("serve-bench %s under %s on %s\n", net.name().c_str(),
              policy_name(*policy), config.to_string().c_str());

  TierRun cycle, functional;
  if (fid.both || fid.fidelity == Fidelity::kCycle)
    cycle = serve_tier(Fidelity::kCycle);
  if (fid.both || fid.fidelity == Fidelity::kFunctional)
    functional = serve_tier(Fidelity::kFunctional);
  const TierRun& primary =
      (!fid.both && fid.fidelity == Fidelity::kFunctional) ? functional
                                                           : cycle;
  const engine::ServeStats& stats = primary.stats;
  const std::vector<SimResult>& results = primary.results;

  std::printf("requests=%lld jobs=%lld sessions=%lld",
              static_cast<long long>(requests),
              static_cast<long long>(jobs > 0 ? jobs
                                              : parallel::default_jobs()),
              static_cast<long long>(stats.sessions));
  // Realized batch sizes under fixed-size chunking: requests/B full
  // batches plus at most one ragged remainder.
  const i64 full = requests / exec_batch;
  const i64 rag = requests % exec_batch;
  std::string hist;
  if (rag > 0) hist = std::to_string(rag) + ":1";
  if (full > 0)
    hist += (hist.empty() ? std::string() : std::string(" ")) +
            std::to_string(exec_batch) + ":" + std::to_string(full);
  std::printf("  batch=%lld  batch sizes: %s\n",
              static_cast<long long>(exec_batch), hist.c_str());
  if (fid.both) {
    // Side-by-side tier report; the tiers must agree byte-for-byte
    // before any speedup claim means anything.
    for (i64 i = 0; i < requests; ++i) {
      const auto& a =
          cycle.results[static_cast<std::size_t>(i)].final_output.storage();
      const auto& b = functional.results[static_cast<std::size_t>(i)]
                          .final_output.storage();
      if (a.size() != b.size() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Fixed16)) != 0) {
        std::fprintf(stderr,
                     "error: functional output diverges from cycle "
                     "output at request %lld\n",
                     static_cast<long long>(i));
        return 1;
      }
    }
    print_tier("cycle", cycle.stats);
    print_tier("functional", functional.stats);
    const double speedup =
        cycle.stats.infer_per_s() > 0.0
            ? functional.stats.infer_per_s() / cycle.stats.infer_per_s()
            : 0.0;
    std::printf("functional speedup %.2fx (outputs byte-identical)\n",
                speedup);
  } else {
    print_tier(fidelity_name(fid.fidelity), stats);
  }

  if (opt.has("baseline")) {
    // The pre-refactor serving story: one full CBrain::simulate per
    // request (fresh machine + weight materialization every time),
    // serial, at the primary tier. Outputs must match the session
    // results byte-for-byte.
    const Fidelity base_fid =
        fid.both ? Fidelity::kCycle : fid.fidelity;
    CBrain brain(config);
    // Warm the primary tier's cache key, same as the session path.
    brain.engine().compile(net, *policy, base_fid);
    const auto t0 = Clock::now();
    for (i64 i = 0; i < requests; ++i) {
      const SimResult r =
          brain.simulate(net, *policy, inputs[static_cast<std::size_t>(i)],
                         params, base_fid);
      const auto& a = r.final_output.storage();
      const auto& b =
          results[static_cast<std::size_t>(i)].final_output.storage();
      if (a.size() != b.size() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Fixed16)) !=
              0) {
        std::fprintf(stderr,
                     "error: per-call output diverges from session "
                     "output at request %lld\n",
                     static_cast<long long>(i));
        return 1;
      }
    }
    const double percall_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    const double percall_ips =
        percall_ms > 0.0
            ? static_cast<double>(requests) / (percall_ms / 1e3)
            : 0.0;
    std::printf("per-call path: %.2f s   %.3f inferences/s   "
                "session speedup %.2fx (outputs byte-identical)\n",
                percall_ms / 1e3, percall_ips,
                percall_ips > 0.0 ? stats.infer_per_s() / percall_ips
                                  : 0.0);
  }
  return 0;
}

// Cross-validates the two execution tiers on one net: bit-compares the
// functional executor's output against the cycle-exact simulator and
// prints the per-layer model-vs-sim cycle/energy error table. Exit 1 on
// any output divergence — this is the CI hook that keeps the fast tier
// honest.
int cmd_fidelity_check(const Network& net, const Options& opt) {
  const auto policy = resolve_policy(opt.get("policy", "adap-2"));
  if (!policy) return 2;
  const func::FidelityReport report =
      func::cross_validate(net, *policy, resolve_config(opt),
                           static_cast<u64>(opt.get_i64("seed", 42)));
  std::printf("%s", report.table().c_str());
  if (!report.outputs_identical) {
    std::fprintf(stderr,
                 "error: functional tier diverged from the cycle-exact "
                 "simulator (%lld/%lld words)\n",
                 static_cast<long long>(report.mismatched_words),
                 static_cast<long long>(report.total_words));
    return 1;
  }
  return 0;
}

int cmd_dot(const Network& net, const Options& opt) {
  const auto policy = resolve_policy(opt.get("policy", "adap-2"));
  if (!policy) return 2;
  const auto schemes =
      assign_schemes(net, *policy, resolve_config(opt));
  std::printf("%s", to_dot(net, schemes).c_str());
  return 0;
}

int cmd_verify(const Network& net, const Options& opt) {
  const AcceleratorConfig config = resolve_config(opt);
  CBrain brain(config);
  bool all_ok = true;
  for (Policy policy : paper_policies()) {
    const VerifyReport report =
        verify_program(net, brain.compile(net, policy), config);
    std::printf("%-10s %s", policy_name(policy),
                report.to_string().c_str());
    all_ok = all_ok && report.ok();
  }
  return all_ok ? 0 : 1;
}

int cmd_timeline(const Network& net, const Options& opt) {
  const auto policy = resolve_policy(opt.get("policy", "adap-2"));
  if (!policy) return 2;
  const AcceleratorConfig config = resolve_config(opt);
  CBrain brain(config);
  obs::TraceData data;
  model_network(net, brain.compile(net, *policy), config, {}, &data);
  TimelineOptions topt;
  topt.width = static_cast<int>(opt.get_i64("width", 64));
  const std::string gantt = render_span_timeline(data, topt);
  // Under --trace-out, feed the analytical span data into the global
  // tracer so the exported Chrome trace carries the same timeline the
  // ASCII Gantt below renders (plus the compile spans recorded above).
  obs::Tracer& tracer = obs::Tracer::global();
  if (tracer.enabled()) {
    std::vector<int> track_map;
    track_map.reserve(data.tracks.size());
    for (const obs::Track& t : data.tracks)
      track_map.push_back(tracer.add_track(t.domain, t.name));
    for (obs::Span& s : data.spans) {
      s.track = track_map[static_cast<std::size_t>(s.track)];
      tracer.record(std::move(s));
    }
  }
  std::printf("%s under %s\n\n%s", net.name().c_str(),
              policy_name(*policy), gantt.c_str());
  return 0;
}

int cmd_oracle(const Network& net, const Options& opt) {
  const OracleMetric metric = opt.get("metric", "cycles") == "energy"
                                  ? OracleMetric::kEnergy
                                  : OracleMetric::kCycles;
  const AcceleratorConfig config = resolve_config(opt);
  const auto oracle = model_network_oracle(net, config, metric);
  const auto adap_schemes =
      assign_schemes(net, Policy::kAdaptive2, config);
  Table t({"layer", "adaptive (Alg.2)", "oracle"});
  for (const Layer& l : net.layers()) {
    if (!l.is_conv()) continue;
    t.add_row({l.name,
               scheme_name(adap_schemes[static_cast<std::size_t>(l.id)]),
               scheme_name(oracle.layer(l.id).scheme)});
  }
  std::printf("%s", t.to_string().c_str());
  const auto adap = model_network(net, Policy::kAdaptive2, config);
  std::printf("\nadaptive: %s cycles, %.2f uJ\noracle:   %s cycles, "
              "%.2f uJ\n",
              with_commas(static_cast<u64>(adap.cycles())).c_str(),
              adap.energy.total_uj(),
              with_commas(static_cast<u64>(oracle.cycles())).c_str(),
              oracle.energy.total_uj());
  return 0;
}

int cmd_fault_campaign(const Options& opt) {
  CampaignSpec spec;
  for (const std::string& name : split(opt.net, ',')) {
    auto net = resolve_net(name);
    if (!net) return 3;
    const NetworkWorkload w = analyze_workload(*net);
    if (w.total_macs > 50'000'000) {
      std::fprintf(stderr,
                   "error: %s has %lld MACs — too large for functional "
                   "fault simulation\n",
                   net->name().c_str(),
                   static_cast<long long>(w.total_macs));
      return 2;
    }
    spec.nets.push_back(std::move(*net));
  }
  const auto policy = resolve_policy(opt.get("policy", "adap-2"));
  if (!policy) return 2;
  spec.policy = *policy;
  spec.config = resolve_config(opt);
  for (const std::string& s : split(opt.get("site", "input,weight,dma"),
                                    ',')) {
    FaultSite site;
    if (!fault_site_from_name(s, &site)) {
      std::fprintf(stderr, "error: unknown fault site '%s'\n", s.c_str());
      return 2;
    }
    spec.sites.push_back(site);
  }
  for (const std::string& r : split(opt.get("rate", "20"), ','))
    spec.rates_per_mword.push_back(std::stod(r));
  for (const std::string& r :
       split(opt.get("recovery", "none,parity,ecc"), ',')) {
    RecoveryPolicy p;
    if (!recovery_policy_from_name(r, &p)) {
      std::fprintf(stderr, "error: unknown recovery policy '%s'\n",
                   r.c_str());
      return 2;
    }
    spec.recoveries.push_back(p);
  }
  spec.seed = static_cast<u64>(opt.get_i64("seed", 1));

  const auto points = run_fault_campaign(spec);
  if (!points.is_ok()) {
    std::fprintf(stderr, "error: %s\n",
                 points.status().to_string().c_str());
    return points.status().code() == StatusCode::kResourceExhausted ? 3 : 4;
  }
  for (const FaultPointResult& p : points.value())
    for (const CompileFallback& fb : p.fallbacks)
      std::printf("# %s: %s\n", p.net.c_str(), fb.to_string().c_str());
  const Table t = campaign_table(points.value());
  std::printf("%s", opt.has("csv") ? t.to_csv().c_str()
                                   : t.to_string().c_str());
  if (opt.has("events")) {
    for (const FaultPointResult& p : points.value()) {
      if (p.events.empty()) continue;
      std::printf("\n%s %s rate=%.3g %s:\n", p.net.c_str(),
                  fault_site_name(p.spec.site), p.spec.rate_per_mword,
                  recovery_policy_name(p.spec.recovery));
      for (const FaultEvent& ev : p.events)
        std::printf("  %s\n", ev.to_string().c_str());
      if (p.dropped_events > 0)
        std::printf("  (+%lld events beyond the log cap)\n",
                    static_cast<long long>(p.dropped_events));
    }
  }
  return 0;
}

int dispatch(const Options& opt) {
  if (opt.command == "list") return cmd_list();
  if (opt.net.empty()) return usage();
  if (opt.command == "fault-campaign") return cmd_fault_campaign(opt);
  const auto net = resolve_net(opt.net);
  if (!net) return 3;
  if (opt.command == "show") return cmd_show(*net);
  if (opt.command == "evaluate") return cmd_evaluate(*net, opt);
  if (opt.command == "compare") return cmd_compare(*net, opt);
  if (opt.command == "disasm") return cmd_disasm(*net, opt);
  if (opt.command == "simulate") return cmd_simulate(*net, opt);
  if (opt.command == "serve-bench") return cmd_serve_bench(*net, opt);
  if (opt.command == "fidelity-check") return cmd_fidelity_check(*net, opt);
  if (opt.command == "oracle") return cmd_oracle(*net, opt);
  if (opt.command == "timeline") return cmd_timeline(*net, opt);
  if (opt.command == "verify") return cmd_verify(*net, opt);
  if (opt.command == "dot") return cmd_dot(*net, opt);
  return usage();
}

int run(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      // A bare "--flag" means "--flag=1".
      const auto eq = arg.find('=');
      const bool bare = eq == std::string::npos;
      opt.flags[arg.substr(2, bare ? eq : eq - 2)] =
          bare ? std::string("1") : arg.substr(eq + 1);
    } else if (opt.command.empty()) {
      opt.command = arg;
    } else if (opt.net.empty()) {
      opt.net = arg;
    } else {
      return usage();
    }
  }
  for (const auto& [name, value] : opt.flags) {
    if (std::find(std::begin(kKnownFlags), std::end(kKnownFlags), name) ==
        std::end(kKnownFlags)) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      return 2;
    }
  }
  if (opt.command.empty()) return usage();
  // 0 = unset → hardware concurrency; --jobs=1 restores fully serial runs.
  parallel::set_default_jobs(opt.get_i64("jobs", 0));
  // --simd overrides the CBRAIN_SIMD env var; every backend is
  // bit-identical, so this only affects host-side speed.
  if (opt.has("simd") && !simd::select_backend(opt.get("simd", "auto"))) {
    std::fprintf(stderr,
                 "error: --simd=%s is not auto|avx2|avxvnni|scalar or not "
                 "supported on this build/CPU\n",
                 opt.get("simd", "auto").c_str());
    return 2;
  }

  // Observability sinks. Tracing is off unless --trace-out asks for it —
  // the instrumented paths then cost one atomic load per guard; metrics
  // record unconditionally and --metrics-out merely dumps the registry.
  const bool want_trace = opt.has("trace-out");
  const bool want_metrics = opt.has("metrics-out");
  if (want_trace) obs::Tracer::global().enable();
  int rc = dispatch(opt);
  if (want_trace) {
    obs::Tracer::global().disable();
    if (!obs::write_chrome_trace(opt.get("trace-out", "")) && rc == 0)
      rc = 1;
  }
  if (want_metrics && !obs::write_metrics(opt.get("metrics-out", "")) &&
      rc == 0)
    rc = 1;
  return rc;
}

}  // namespace
}  // namespace cbrain::cli

// The single diagnostic boundary: library-level failures surface here as
// one-line messages with documented exit codes instead of stack traces.
// CheckError (violated invariant) and anything unexpected are "internal"
// (4); stoll/stod failures from flag values are usage errors (2).
int main(int argc, char** argv) {
  try {
    return cbrain::cli::run(argc, argv);
  } catch (const cbrain::CheckError& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 4;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: bad flag or numeric value: %s\n",
                 e.what());
    return 2;
  } catch (const std::out_of_range& e) {
    std::fprintf(stderr, "error: value out of range: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 4;
  }
}
