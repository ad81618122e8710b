#include "cbrain/fault/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "cbrain/common/thread_pool.hpp"
#include "cbrain/engine/engine.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/ref/params.hpp"
#include "cbrain/sim/executor.hpp"

namespace cbrain {
namespace {

// SplitMix64 finalizer: decorrelates per-point injector seeds from the
// campaign seed + grid index without floating point.
u64 mix_seed(u64 seed, u64 index) {
  u64 z = seed + 0x9E3779B97F4A7C15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Data seeds are fixed so every point of a campaign (and the fault-free
// reference inside each point) runs the exact same workload.
constexpr u64 kParamsSeed = 0xDA7A;
constexpr u64 kInputSeed = 0xDA7A ^ 0x1234;

i64 sum_total_cycles(const SimResult& r) {
  i64 total = 0;
  for (const TrafficCounters& c : r.per_layer) total += c.total_cycles;
  return total;
}

TrafficCounters sum_counters(const SimResult& r) {
  TrafficCounters total;
  for (const TrafficCounters& c : r.per_layer) total += c;
  return total;
}

// Prices the injector's code-word traffic (parity/ECC/CRC words read
// alongside the data) and DMA retransmissions with the same per-access
// constants as the data traffic itself.
double protection_pj(const FaultStats& s, const EnergyParams& p) {
  const auto words = [&](FaultSite site) {
    return static_cast<double>(
        s.code_words[static_cast<std::size_t>(site)]);
  };
  double pj = 0.0;
  pj += words(FaultSite::kInputSram) * p.inout_buf_pj;
  pj += words(FaultSite::kAccumSram) * p.inout_buf_pj;
  pj += words(FaultSite::kWeightSram) * p.weight_buf_pj;
  pj += words(FaultSite::kBiasSram) * p.bias_buf_pj;
  pj += words(FaultSite::kDram) * p.dram_pj;
  pj += words(FaultSite::kDma) * p.dram_pj;
  pj += static_cast<double>(s.dma_retry_words) * p.dram_pj;
  return pj;
}

std::string fmt(const char* f, double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// Everything a campaign shares across the grid points of one network:
// the resilient compile (with its fallback log), the fixed workload, and
// the fault-free reference run. Before the session split the baseline
// simulation re-ran inside *every* grid point; now it runs once per net
// through a weight-resident engine::Session and every point diffs
// against the shared result — bit-identical, since the baseline is
// deterministic in (net, policy, config, seeds).
struct NetBaseline {
  std::shared_ptr<const CompiledNetwork> compiled;
  std::vector<CompileFallback> fallbacks;
  NetParamsData<Fixed16> params;
  Tensor3<Fixed16> input;
  SimResult base;
  i64 baseline_cycles = 0;
  double baseline_pj = 0.0;
};

Result<NetBaseline> make_net_baseline(const Network& net, Policy policy,
                                      const AcceleratorConfig& config,
                                      const EnergyParams& energy) {
  NetBaseline ctx;
  Result<CompiledNetwork> compiled =
      compile_network_resilient(net, policy, config, &ctx.fallbacks);
  if (!compiled.is_ok()) return compiled.status();
  ctx.compiled = std::make_shared<const CompiledNetwork>(
      std::move(compiled).value());

  ctx.params = init_net_params<Fixed16>(net, kParamsSeed);
  ctx.input = random_input<Fixed16>(net.layer(0).out_dims, kInputSeed);

  engine::Session session(net, ctx.compiled, config);
  session.load_params(ctx.params);
  ctx.base = session.infer(ctx.input);
  ctx.baseline_cycles = sum_total_cycles(ctx.base);
  ctx.baseline_pj =
      compute_energy(sum_counters(ctx.base), energy).total_pj();
  return ctx;
}

// The injected half of a point. Always a *fresh* executor: a faulty run
// corrupts simulated DRAM (weights included), so unlike the fault-free
// baseline it can never share a weight-resident machine across points.
// The injector attaches before run() so materialization writes are
// subject to faults, exactly as on the historical single-shot path.
FaultPointResult run_faulty_half(const Network& net,
                                 const AcceleratorConfig& config,
                                 const FaultPointSpec& spec,
                                 const EnergyParams& energy,
                                 const NetBaseline& ctx) {
  FaultPointResult out;
  out.net = net.name();
  out.spec = spec;
  out.fallbacks = ctx.fallbacks;
  out.baseline_cycles = ctx.baseline_cycles;
  out.baseline_pj = ctx.baseline_pj;

  FaultConfig fc;
  fc.seed = spec.seed;
  fc.recovery = spec.recovery;
  fc.rate(spec.site) = spec.rate_per_mword;
  FaultInjector injector(fc);

  SimExecutor faulty(net, *ctx.compiled, config);
  faulty.attach_fault(&injector);
  const SimResult hit = faulty.run(ctx.input, ctx.params);
  out.faulty_cycles = sum_total_cycles(hit);
  out.faulty_pj = compute_energy(sum_counters(hit), energy).total_pj() +
                  protection_pj(injector.stats(), energy);
  out.stats = injector.stats();
  out.events = injector.events();
  out.dropped_events = injector.dropped_events();

  // Campaign-wide recovery telemetry: per-point integer deltas summed
  // into the registry, so campaign totals are identical at any --jobs.
  auto& reg = obs::Registry::global();
  reg.counter("fault.points_total").inc();
  reg.counter("fault.injected_total").inc(out.stats.total_injected());
  reg.counter("fault.detected_total").inc(out.stats.detected);
  reg.counter("fault.corrected_total").inc(out.stats.corrected);
  reg.counter("fault.uncorrected_total").inc(out.stats.uncorrected);
  reg.counter("fault.silent_total").inc(out.stats.silent);
  reg.counter("fault.instruction_replays_total")
      .inc(out.stats.instruction_replays);
  reg.counter("fault.dma_retries_total").inc(out.stats.dma_retries);

  const Tensor3<Fixed16>& a = ctx.base.final_output;
  const Tensor3<Fixed16>& b = hit.final_output;
  for (i64 d = 0; d < a.dims().d; ++d)
    for (i64 y = 0; y < a.dims().h; ++y)
      for (i64 x = 0; x < a.dims().w; ++x) {
        ++out.outputs;
        const int da = a.at(d, y, x).raw();
        const int db = b.at(d, y, x).raw();
        if (da == db) continue;
        ++out.mismatched_outputs;
        out.max_abs_err =
            std::max(out.max_abs_err, std::abs(da - db) / 256.0);
      }
  return out;
}

}  // namespace

double FaultPointResult::cycle_overhead() const {
  if (baseline_cycles <= 0) return 0.0;
  return static_cast<double>(faulty_cycles - baseline_cycles) /
         static_cast<double>(baseline_cycles);
}

double FaultPointResult::energy_overhead() const {
  if (baseline_pj <= 0.0) return 0.0;
  return (faulty_pj - baseline_pj) / baseline_pj;
}

Result<FaultPointResult> run_fault_point(const Network& net, Policy policy,
                                         const AcceleratorConfig& config,
                                         const FaultPointSpec& spec,
                                         const EnergyParams& energy) {
  Result<NetBaseline> ctx = make_net_baseline(net, policy, config, energy);
  if (!ctx.is_ok()) return ctx.status();
  return run_faulty_half(net, config, spec, energy, ctx.value());
}

Result<std::vector<FaultPointResult>> run_fault_campaign(
    const CampaignSpec& spec) {
  // Baselines first: one resilient compile + one fault-free session run
  // per *network*, shared by every grid point of that net (they all use
  // identical seeds, so the shared result is bit-identical to the
  // per-point rerun it replaces).
  struct BaselineSlot {
    NetBaseline ctx;
    Status status;
  };
  const auto n_nets = static_cast<i64>(spec.nets.size());
  std::vector<BaselineSlot> baselines = parallel::parallel_map<BaselineSlot>(
      n_nets, [&](i64 i) {
        BaselineSlot s;
        Result<NetBaseline> r =
            make_net_baseline(spec.nets[static_cast<std::size_t>(i)],
                              spec.policy, spec.config, spec.energy);
        if (r.is_ok())
          s.ctx = std::move(r).value();
        else
          s.status = r.status();
        return s;
      });
  for (const BaselineSlot& s : baselines)
    if (!s.status.is_ok()) return s.status;

  struct Point {
    std::size_t net_index = 0;
    FaultPointSpec fp;
  };
  std::vector<Point> grid;
  for (std::size_t ni = 0; ni < spec.nets.size(); ++ni)
    for (const FaultSite site : spec.sites)
      for (const double rate : spec.rates_per_mword)
        for (const RecoveryPolicy recovery : spec.recoveries) {
          Point p;
          p.net_index = ni;
          p.fp.site = site;
          p.fp.rate_per_mword = rate;
          p.fp.recovery = recovery;
          p.fp.seed = mix_seed(spec.seed, grid.size());
          grid.push_back(p);
        }

  std::vector<FaultPointResult> points =
      parallel::parallel_map<FaultPointResult>(
          static_cast<i64>(grid.size()), [&](i64 i) {
            const Point& p = grid[static_cast<std::size_t>(i)];
            return run_faulty_half(spec.nets[p.net_index], spec.config,
                                   p.fp, spec.energy,
                                   baselines[p.net_index].ctx);
          });
  return points;
}

Table campaign_table(const std::vector<FaultPointResult>& points) {
  Table t({"net", "site", "mode", "rate/Mw", "recovery", "inj", "det",
           "corr", "uncorr", "silent", "replays", "retries", "mism",
           "max_err", "cyc_ovh%", "en_ovh%"});
  std::string last_net;
  for (const FaultPointResult& p : points) {
    if (!last_net.empty() && p.net != last_net) t.add_rule();
    last_net = p.net;
    t.add_row({p.net, fault_site_name(p.spec.site),
               fault_mode_name(p.spec.site),
               fmt("%.3g", p.spec.rate_per_mword),
               recovery_policy_name(p.spec.recovery),
               std::to_string(p.stats.total_injected()),
               std::to_string(p.stats.detected),
               std::to_string(p.stats.corrected),
               std::to_string(p.stats.uncorrected),
               std::to_string(p.stats.silent),
               std::to_string(p.stats.instruction_replays),
               std::to_string(p.stats.dma_retries),
               std::to_string(p.mismatched_outputs),
               fmt("%.4g", p.max_abs_err),
               fmt("%.3f", p.cycle_overhead() * 100.0),
               fmt("%.3f", p.energy_overhead() * 100.0)});
  }
  return t;
}

}  // namespace cbrain
