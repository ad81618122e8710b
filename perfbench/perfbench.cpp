// perfbench — the repository's end-to-end benchmark (README.md in this
// directory explains why each workload exists and what each metric
// should move). One process, at most four threads, three closed-loop
// single-client workloads:
//
//   cycle_alexnet  cycle-exact Session::infer of AlexNet, one image per op
//   func_serve     functional-tier Engine::run_batches, one op = one round
//                  of 8 images (two 4-image batches) for each of alexnet,
//                  resnet18 and mobilenetv1, jobs=2
//   dse_sweep      analytical design-space exploration: one op = one
//                  accelerator config, compiling, modelling (5 paper
//                  policies) and oracle-modelling six nets
//
// usage: perfbench --workload W --seed N --seconds S --trace 0|1 [--out DIR]
//
// Set-up runs kSetupReps times and reports its median. The timed loop
// then runs ops for S seconds. With --trace 0 the last stdout line
// carries the end-to-end metrics; with --trace 1 ops alternate untraced
// and traced (obs::Tracer on) and the line carries the per-layer
// metrics, while the first traced op is written as a Chrome trace.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "cbrain/common/json.hpp"
#include "cbrain/common/rng.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/core/cbrain.hpp"
#include "cbrain/core/oracle.hpp"
#include "cbrain/engine/engine.hpp"
#include "cbrain/nn/zoo.hpp"
#include "cbrain/obs/chrome_trace.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/obs/tracer.hpp"
#include "cbrain/ref/params.hpp"
#include "cbrain/simd/simd.hpp"

namespace {

using namespace cbrain;
using Clock = std::chrono::steady_clock;

// Each repetition rebuilds the workload from nothing; the median tames
// the host's multi-second drift without stretching a run past its limit.
constexpr int kSetupReps = 3;
// A traced run needs at least one untraced and one traced op.
constexpr i64 kMinOps = 2;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// CPU time of the whole process (every thread), for the result file:
// beside wall time it shows whether a slow op waited or computed.
double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// Host memory-speed probe. Co-tenants of a shared host slow its memory
// system for tens of seconds at a time: AlexNet cycle infers swing
// between about 270 and 480 ms while a register-only loop stays within
// 2%. One multiply-accumulate pass over a 64 MiB buffer, far beyond the
// last-level cache, slows with them, so each timing is reported scaled
// to a host on which that pass takes kProbeRefMs (README.md, "Noise
// lessons").
class HostProbe {
 public:
  static constexpr std::size_t kBytes = std::size_t{64} << 20;
  static constexpr double kProbeRefMs = 18.0;

  HostProbe() : buf_(kBytes / sizeof(std::int16_t)) {
    for (std::size_t i = 0; i < buf_.size(); ++i)
      buf_[i] = static_cast<std::int16_t>(i * 7);
    last_ms_ = pass_ms();
  }

  // Scales `raw` (ms or s), measured since the previous call (or since
  // construction), by the mean of the probe passes on either side of it.
  double scale(double raw) {
    const double before = last_ms_;
    last_ms_ = pass_ms();
    return raw * kProbeRefMs / (0.5 * (before + last_ms_));
  }
  double last_pass_ms() const { return last_ms_; }

 private:
  double pass_ms() {
    const auto t0 = Clock::now();
    i64 acc = 0;
    for (std::size_t i = 0; i < buf_.size(); ++i)
      acc += buf_[i] * static_cast<i64>(i & 15);
    sink_ = acc;
    return ms_since(t0);
  }

  std::vector<std::int16_t> buf_;
  double last_ms_ = 0;
  volatile i64 sink_ = 0;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

u64 fnv1a(u64 h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr u64 kFnvBasis = 14695981039346656037ULL;

u64 digest(const Tensor3<Fixed16>& t) {
  const auto& s = t.storage();
  return fnv1a(kFnvBasis, s.data(), s.size() * sizeof(Fixed16));
}

template <typename T>
u64 mix(u64 h, const T& v) {
  return fnv1a(h, &v, sizeof(v));
}

i64 total_cycles(const SimResult& r) {
  i64 c = 0;
  for (const TrafficCounters& t : r.per_layer) c += t.total_cycles;
  return c;
}

// Per-layer samples. A frame sums every timing taken within one set-up
// or one op; commit() turns each frame total into one sample, and a
// metric reports the median of its samples.
class Layers {
 public:
  void add(const std::string& name, double v) { frame_[name] += v; }
  void set(const std::string& name, double v) { fixed_[name] = v; }
  void commit(bool keep) {
    if (keep)
      for (const auto& [name, v] : frame_) samples_[name].push_back(v);
    frame_.clear();
  }
  double value(const std::string& name) const {
    if (auto it = fixed_.find(name); it != fixed_.end()) return it->second;
    if (auto it = samples_.find(name); it != samples_.end())
      return median(it->second);
    return 0.0;
  }
  void write(JsonWriter& w) const {
    w.begin_object();
    for (const auto& [name, v] : samples_) {
      w.key(name).begin_array();
      for (double x : v) w.value(x);
      w.end_array();
    }
    for (const auto& [name, v] : fixed_) w.kv(name, v);
    w.end_object();
  }

 private:
  std::map<std::string, double> frame_, fixed_;
  std::map<std::string, std::vector<double>> samples_;
};

// Wall-clock track the benchmark's own spans go on while tracing.
int g_track = 0;

// Times one call into the library: adds its wall time to `metric` in
// the current frame and, while the tracer is on, records a span.
class Step {
 public:
  Step(Layers& layers, std::string metric)
      : layers_(layers),
        metric_(std::move(metric)),
        span_(g_track, 0, metric_, "perfbench") {}
  ~Step() { layers_.add(metric_, ms_since(t0_)); }
  Step(const Step&) = delete;
  Step& operator=(const Step&) = delete;

 private:
  Layers& layers_;
  std::string metric_;
  obs::WallSpan span_;
  Clock::time_point t0_ = Clock::now();
};

// First-pass output digests; every later pass over the same input must
// reproduce its digest exactly.
class DigestBook {
 public:
  bool check(u64 key, u64 d) {
    auto [it, inserted] = seen_.emplace(key, d);
    return inserted || it->second == d;
  }

 private:
  std::map<u64, u64> seen_;
};

// Cycle-tier facts of a reference pass, reported as per-layer metrics.
void record_sim_pass(const Network& net, const SimResult& r, Layers& layers) {
  i64 dram = 0, muls = 0, idle = 0;
  for (const Layer& l : net.layers()) {
    if (l.kind == LayerKind::kInput) continue;
    const TrafficCounters& t = r.layer_total(l.id);
    layers.set("sim.cycles." + l.name, static_cast<double>(t.total_cycles));
    dram += t.dram_words();
    muls += t.mul_ops;
    idle += t.idle_mul_slots;
  }
  layers.set("sim.dram_words", static_cast<double>(dram));
  layers.set("sim.pe_util",
             muls + idle > 0 ? static_cast<double>(muls) /
                                   static_cast<double>(muls + idle)
                             : 0.0);
}

class Workload {
 public:
  virtual ~Workload() = default;
  // Everything before the first timed op: nets, parameters, compile,
  // sessions, output cross-checks, then one untimed warm-up op whose
  // cycles are the run's reference pass. False when a check fails.
  virtual bool setup(Layers& layers) = 0;
  // One timed op. Returns the items it completed, or 0 when an output
  // check fails. Library failures throw.
  virtual i64 op(i64 k, Layers& layers) = 0;
  virtual i64 reference_cycles() const = 0;
  // Compile-cache lookups made by timed ops.
  virtual i64 cache_misses() const { return 0; }
  virtual i64 cache_lookups() const { return 0; }
};

// --- cycle_alexnet ---------------------------------------------------------

class CycleAlexnet final : public Workload {
 public:
  explicit CycleAlexnet(u64 seed)
      : seed_(seed),
        net_(zoo::alexnet()),
        engine_(AcceleratorConfig::paper_16_16()) {}

  bool setup(Layers& layers) override {
    {
      Step s(layers, "ref.params_ms");
      params_ = init_net_params<Fixed16>(net_, seed_);
    }
    for (u64 i = 0; i < kImages; ++i)
      images_.push_back(
          random_input<Fixed16>(net_.layer(0).out_dims, seed_ * 977 + i + 1));
    {
      Step s(layers, "compiler.compile_ms.alexnet");
      engine_.compile(net_, Policy::kAdaptive2, Fidelity::kCycle);
    }
    {
      Step s(layers, "engine.open_session_ms");
      session_ = engine_.open_session(net_, Policy::kAdaptive2);
    }
    {
      Step s(layers, "engine.load_params_ms");
      session_->load_params(params_);
    }
    const SimResult ref = session_->infer(images_[0]);
    ref_cycles_ = total_cycles(ref);
    record_sim_pass(net_, ref, layers);
    const u64 d = digest(ref.final_output);
    book_.check(0, d);
    // Cross-tier check: the functional tier must produce the same bytes.
    auto func = engine_.open_session(net_, Policy::kAdaptive2, params_,
                                     Fidelity::kFunctional);
    return digest(func->infer(images_[0]).final_output) == d;
  }

  i64 op(i64 k, Layers& layers) override {
    const u64 idx = static_cast<u64>(k) % kImages;
    SimResult r;
    {
      Step s(layers, "sim.infer_ms");
      r = session_->infer(images_[idx]);
    }
    return book_.check(idx, digest(r.final_output)) ? 1 : 0;
  }

  i64 reference_cycles() const override { return ref_cycles_; }

 private:
  static constexpr u64 kImages = 4;
  u64 seed_;
  Network net_;
  engine::Engine engine_;
  NetParamsData<Fixed16> params_;
  std::vector<Tensor3<Fixed16>> images_;
  std::unique_ptr<engine::Session> session_;
  DigestBook book_;
  i64 ref_cycles_ = 0;
};

// --- func_serve ------------------------------------------------------------

class FuncServe final : public Workload {
 public:
  explicit FuncServe(u64 seed)
      : seed_(seed), engine_(AcceleratorConfig::paper_16_16()) {
    nets_.push_back(zoo::alexnet());
    nets_.push_back(zoo::resnet18());
    nets_.push_back(zoo::mobilenetv1());
  }

  bool setup(Layers& layers) override {
    params_.resize(nets_.size());
    inputs_.resize(nets_.size());
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      const Network& net = nets_[n];
      {
        Step s(layers, "ref.params_ms");
        params_[n] = init_net_params<Fixed16>(net, seed_ + n);
      }
      for (u64 r = 0; r < kRounds; ++r)
        for (u64 i = 0; i < kImages; ++i)
          inputs_[n][r].push_back(random_input<Fixed16>(
              net.layer(0).out_dims, seed_ * 977 + n * 101 + r * 13 + i + 1));
      {
        Step s(layers, "compiler.compile_ms." + net.name());
        engine_.compile(net, Policy::kAdaptive2, Fidelity::kFunctional);
      }
    }
    // One functional session per net, timed for the engine.* metrics;
    // the AlexNet one also serves the cross-tier check. Each op's
    // run_batches opens its own session pool.
    std::vector<std::unique_ptr<engine::Session>> sessions;
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      {
        Step s(layers, "engine.open_session_ms");
        sessions.push_back(engine_.open_session(
            nets_[n], Policy::kAdaptive2, Fidelity::kFunctional));
      }
      Step s(layers, "engine.load_params_ms");
      sessions.back()->load_params(params_[n]);
    }
    // Cross-tier check on one AlexNet input: cycle == functional bytes.
    const Tensor3<Fixed16>& probe = inputs_[0][0][0];
    const u64 func_digest = digest(sessions[0]->infer(probe).final_output);
    sessions.clear();
    auto cycle = engine_.open_session(nets_[0], Policy::kAdaptive2, params_[0],
                                      Fidelity::kCycle);
    SimResult cr;
    {
      Step s(layers, "sim.infer_ms");
      cr = cycle->infer(probe);
    }
    record_sim_pass(nets_[0], cr, layers);
    cycle.reset();
    bool ok = digest(cr.final_output) == func_digest;
    // Warm-up op: round 0; its first image per net is the reference pass.
    Layers untimed;
    ok = round(0, untimed, &ref_cycles_) && ok;
    setup_misses_ = engine_.cache_misses();
    setup_lookups_ = setup_misses_ + engine_.cache_hits();
    return ok;
  }

  i64 op(i64 k, Layers& layers) override {
    const u64 r = static_cast<u64>(k + 1) % kRounds;
    return round(r, layers, nullptr)
               ? static_cast<i64>(nets_.size() * kImages)
               : 0;
  }

  i64 reference_cycles() const override { return ref_cycles_; }
  i64 cache_misses() const override {
    return engine_.cache_misses() - setup_misses_;
  }
  i64 cache_lookups() const override {
    return engine_.cache_misses() + engine_.cache_hits() - setup_lookups_;
  }

 private:
  static constexpr u64 kRounds = 2;
  static constexpr u64 kImages = 8;

  bool round(u64 r, Layers& layers, i64* ref_cycles) {
    static const std::vector<std::vector<i64>> kBatches = {{0, 1, 2, 3},
                                                           {4, 5, 6, 7}};
    bool ok = true;
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      std::vector<Status> statuses;
      std::vector<SimResult> res;
      {
        Step s(layers, "func.run_batches_ms." + nets_[n].name());
        res = engine_.run_batches(nets_[n], Policy::kAdaptive2, params_[n],
                                  inputs_[n][r], kBatches, /*jobs=*/2,
                                  nullptr, Fidelity::kFunctional, &statuses);
      }
      for (u64 i = 0; i < kImages; ++i) {
        ok = ok && statuses[i].is_ok() &&
             book_.check((n * kRounds + r) * kImages + i,
                         digest(res[i].final_output));
      }
      if (ref_cycles != nullptr) *ref_cycles += total_cycles(res[0]);
    }
    return ok;
  }

  u64 seed_;
  engine::Engine engine_;
  std::vector<Network> nets_;
  std::vector<NetParamsData<Fixed16>> params_;
  std::vector<std::array<std::vector<Tensor3<Fixed16>>, kRounds>> inputs_;
  DigestBook book_;
  i64 ref_cycles_ = 0;
  i64 setup_misses_ = 0;
  i64 setup_lookups_ = 0;
};

// --- dse_sweep -------------------------------------------------------------

class DseSweep final : public Workload {
 public:
  explicit DseSweep(u64 seed) {
    for (AcceleratorConfig geom :
         {AcceleratorConfig::paper_16_16(), AcceleratorConfig::paper_32_32(),
          AcceleratorConfig::with_pe(16, 24)})
      for (double wpc : {1.0, 2.0, 4.0}) {
        geom.dram.words_per_cycle = wpc;
        configs_.push_back(geom);
      }
    // The seed picks the order the timed ops visit the configs in.
    order_.resize(configs_.size());
    std::iota(order_.begin(), order_.end(), 0);
    Rng rng(seed);
    for (std::size_t i = order_.size(); i > 1; --i)
      std::swap(order_[i - 1],
                order_[static_cast<std::size_t>(rng.next_u64() % i)]);
  }

  bool setup(Layers&) override {
    nets_ = {zoo::alexnet(), zoo::googlenet(), zoo::vgg16(),
             zoo::nin(),     zoo::resnet18(),  zoo::mobilenetv1()};
    // Warm-up op at the paper's 16-16 / 2 words-per-cycle point, which
    // is the reference pass: adap-2 cycles summed over the six nets.
    Layers untimed;
    const bool ok = sweep(kReferenceConfig, untimed, &ref_cycles_);
    misses_ = lookups_ = 0;  // count timed ops only
    return ok;
  }

  i64 op(i64 k, Layers& layers) override {
    const std::size_t c =
        order_[static_cast<std::size_t>(k) % order_.size()];
    return sweep(c, layers, nullptr)
               ? static_cast<i64>(nets_.size())
               : 0;
  }

  i64 reference_cycles() const override { return ref_cycles_; }
  i64 cache_misses() const override { return misses_; }
  i64 cache_lookups() const override { return lookups_; }

 private:
  static constexpr std::size_t kReferenceConfig = 1;  // 16-16, 2 words/cycle

  bool sweep(std::size_t c, Layers& layers, i64* ref_cycles) {
    const AcceleratorConfig& cfg = configs_[c];
    u64 sig = kFnvBasis;
    for (const Network& net : nets_) {
      CBrain cb(cfg);
      {
        Step s(layers, "compiler.compile_ms." + net.name());
        for (Policy p : paper_policies()) cb.compile(net, p);
      }
      PolicyComparison cmp;
      {
        Step s(layers, "model.model_network_ms." + net.name());
        cmp = cb.compare_policies(net);
      }
      NetworkModelResult oracle;
      {
        Step s(layers, "core.oracle_ms." + net.name());
        oracle = model_network_oracle(net, cfg);
      }
      misses_ += cb.engine().cache_misses();
      lookups_ += cb.engine().cache_misses() + cb.engine().cache_hits();
      sig = mix(sig, cmp.ideal_cycles);
      for (const NetworkModelResult& r : cmp.results) {
        sig = mix(sig, r.cycles());
        sig = mix(sig, r.totals.dram_words());
        sig = mix(sig, r.energy.total_pj());
      }
      sig = mix(sig, oracle.cycles());
      sig = mix(sig, oracle.energy.total_pj());
      if (ref_cycles != nullptr)
        *ref_cycles += cmp.by_policy(Policy::kAdaptive2).cycles();
    }
    return book_.check(c, sig);
  }

  std::vector<AcceleratorConfig> configs_;
  std::vector<std::size_t> order_;
  std::vector<Network> nets_;
  DigestBook book_;
  i64 ref_cycles_ = 0;
  i64 misses_ = 0;
  i64 lookups_ = 0;
};

// --- metric catalogue -------------------------------------------------------

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<std::string>& dse_nets() {
  static const std::vector<std::string> kNets = {
      "alexnet", "googlenet", "vgg16", "nin", "resnet18", "mobilenetv1"};
  return kNets;
}

const std::vector<std::string>& func_kinds() {
  static const std::vector<std::string> kKinds = {"conv", "pool",    "fc",
                                                  "lrn",  "add", "softmax"};
  return kKinds;
}

// Every per-layer metric, printed by every traced run (0 where the
// workload does not exercise that layer).
std::vector<MetricDef> per_layer_defs() {
  std::vector<MetricDef> d = {{"ref.params_ms", "ms"},
                              {"engine.open_session_ms", "ms"},
                              {"engine.load_params_ms", "ms"},
                              {"engine.cache_miss_frac", "ratio"}};
  for (const std::string& n : dse_nets())
    d.push_back({"compiler.compile_ms." + n, "ms"});
  for (const std::string& n : dse_nets())
    d.push_back({"model.model_network_ms." + n, "ms"});
  for (const std::string& n : dse_nets())
    d.push_back({"core.oracle_ms." + n, "ms"});
  d.push_back({"sim.infer_ms", "ms"});
  const Network alexnet = zoo::alexnet();
  for (const Layer& l : alexnet.layers())
    if (l.kind != LayerKind::kInput)
      d.push_back({"sim.cycles." + l.name, "cycles"});
  d.push_back({"sim.dram_words", "words"});
  d.push_back({"sim.pe_util", "ratio"});
  for (const char* n : {"alexnet", "resnet18", "mobilenetv1"})
    d.push_back({std::string("func.run_batches_ms.") + n, "ms"});
  for (const std::string& k : func_kinds())
    d.push_back({"func.wall_us." + k, "us"});
  d.push_back({"obs.trace_overhead_frac", "ratio"});
  return d;
}

// --- host fingerprint -------------------------------------------------------

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000, nullptr);
  if (max_ext >= 0x80000004) {
    for (unsigned int i = 0; i < 3; ++i)
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

void write_host(JsonWriter& w, const std::string& workload, u64 seed) {
  w.begin_object()
      .kv("workload", workload)
      .kv("seed", seed)
      .kv("cores", static_cast<i64>(std::thread::hardware_concurrency()))
      .kv("cpu", cpu_model())
      .kv("compiler", PERFBENCH_COMPILER)
      .kv("build_type", PERFBENCH_BUILD_TYPE)
      .kv("flags", PERFBENCH_FLAGS)
      .kv("simd", simd::backend_name(simd::active_backend()))
      .end_object();
}

// Peak resident memory without the probe buffer, which is resident from
// before set-up to exit.
double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0 -  // KiB on Linux
         static_cast<double>(HostProbe::kBytes >> 20);
}

// --- main loop --------------------------------------------------------------

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  int trace = -1;
  std::string out;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v), have_seed = true;
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--out") a.out = v;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && a.seconds > 0 &&
         (a.trace == 0 || a.trace == 1) &&
         (a.workload == "cycle_alexnet" || a.workload == "func_serve" ||
          a.workload == "dse_sweep");
}

std::unique_ptr<Workload> make_workload(const std::string& name, u64 seed) {
  if (name == "cycle_alexnet") return std::make_unique<CycleAlexnet>(seed);
  if (name == "func_serve") return std::make_unique<FuncServe>(seed);
  return std::make_unique<DseSweep>(seed);
}

// The functional tier's per-kind wall-time counters, read from the
// global obs registry.
std::map<std::string, i64> func_wall_us() {
  std::map<std::string, i64> by_kind;
  for (const std::string& k : func_kinds())
    by_kind[k] = obs::Registry::global().counter("func.wall_us." + k).value();
  return by_kind;
}

void write_file(const std::filesystem::path& p, const std::string& text) {
  std::ofstream f(p);
  f << text << '\n';
}

int run(const Args& a) {
  // Caller thread plus three pool workers: at most four threads.
  parallel::set_default_jobs(3);
  const bool trace = a.trace == 1;

  JsonWriter host;
  write_host(host, a.workload, a.seed);
  std::cout << "host " << host.str() << '\n';

  // Built first, so its pages are resident for the whole run.
  HostProbe probe;
  Layers layers;
  // Raw wall times, closing probe passes, and probe-scaled times.
  std::vector<double> setup_raw_s, setup_probe_ms, setup_s;
  bool setup_ok = true;
  std::unique_ptr<Workload> w;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w.reset();
    const auto t0 = Clock::now();
    w = make_workload(a.workload, a.seed);
    setup_ok = w->setup(layers) && setup_ok;
    setup_raw_s.push_back(ms_since(t0) / 1e3);
    setup_s.push_back(probe.scale(setup_raw_s.back()));
    setup_probe_ms.push_back(probe.last_pass_ms());
    layers.commit(true);
  }
  if (!setup_ok) std::cerr << "perfbench: set-up output check failed\n";

  std::vector<double> untraced_ms, traced_ms, op_raw_ms, op_probe_ms,
      op_cpu_ms;
  std::map<std::string, i64> wall_us_traced;
  obs::TraceData first_trace;
  i64 attempted = 0, failed = 0, items = 0;
  double timed_ms = 0;
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(a.seconds));
  for (i64 k = 0; k < kMinOps || Clock::now() < deadline; ++k) {
    const bool traced = trace && k % 2 == 1;
    const std::map<std::string, i64> wall_before = func_wall_us();
    if (traced) {
      obs::Tracer::global().enable();
      g_track = obs::Tracer::global().add_track(obs::Domain::kWall,
                                                "perfbench:" + a.workload);
    }
    const double cpu0 = process_cpu_ms();
    const auto t0 = Clock::now();
    i64 done = 0;
    try {
      done = w->op(k, layers);
    } catch (const std::exception& e) {
      std::cerr << "perfbench: op " << k << " failed: " << e.what() << '\n';
    }
    op_raw_ms.push_back(ms_since(t0));
    op_cpu_ms.push_back(process_cpu_ms() - cpu0);
    const double ms = probe.scale(op_raw_ms.back());
    op_probe_ms.push_back(probe.last_pass_ms());
    timed_ms += ms;
    if (traced) {
      obs::Tracer::global().disable();
      obs::TraceData data = obs::Tracer::global().drain();
      if (first_trace.empty()) first_trace = std::move(data);
      for (const auto& [kind, us] : func_wall_us())
        wall_us_traced[kind] += us - wall_before.at(kind);
    }
    layers.commit(!trace || traced);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    ++attempted;
    if (done > 0) items += done;
    else ++failed;
  }
  const bool correct = setup_ok && failed == 0;

  // Values keep every digit (JsonWriter rounds to 10 significant).
  std::ostringstream m;
  m.precision(17);
  auto metric = [&m](const std::string& name, double v,
                     const std::string& unit) {
    m << (m.tellp() > 0 ? ", " : "{") << '"' << name << "\": {\"value\": "
      << v << ", \"unit\": \"" << unit << "\"}";
  };
  if (!trace) {
    metric("setup_s", median(setup_s), "s");
    metric("op_ms_p50", median(untraced_ms), "ms");
    metric("items_per_s", static_cast<double>(items) * 1e3 / timed_ms, "1/s");
    metric("peak_rss_mb", peak_rss_mib(), "MiB");
    metric("accel_cycles", static_cast<double>(w->reference_cycles()),
           "cycles");
  } else {
    layers.set("engine.cache_miss_frac",
               w->cache_lookups() > 0
                   ? static_cast<double>(w->cache_misses()) /
                         static_cast<double>(w->cache_lookups())
                   : 0.0);
    const double traced_ops = static_cast<double>(traced_ms.size());
    for (const std::string& kind : func_kinds())
      layers.set("func.wall_us." + kind,
                 static_cast<double>(wall_us_traced[kind]) / traced_ops);
    layers.set("obs.trace_overhead_frac",
               median(traced_ms) / median(untraced_ms) - 1.0);
    for (const MetricDef& d : per_layer_defs())
      metric(d.name, layers.value(d.name), d.unit);
  }
  m << '}';

  if (!a.out.empty()) {
    namespace fs = std::filesystem;
    const fs::path dir = fs::path(a.out) / (a.workload + "-seed" +
                                            std::to_string(a.seed) +
                                            "-trace" + std::to_string(a.trace));
    fs::create_directories(dir);
    JsonWriter r;
    r.begin_object().key("host");
    write_host(r, a.workload, a.seed);
    auto array = [&r](const char* key, const std::vector<double>& v) {
      r.key(key).begin_array();
      for (double x : v) r.value(x);
      r.end_array();
    };
    array("setup_raw_s", setup_raw_s);
    array("setup_probe_ms", setup_probe_ms);
    array("setup_s", setup_s);
    array("op_raw_ms", op_raw_ms);
    array("op_probe_ms", op_probe_ms);
    array("op_cpu_ms", op_cpu_ms);
    array("untraced_op_ms", untraced_ms);
    array("traced_op_ms", traced_ms);
    r.key("layers");
    layers.write(r);
    r.end_object();
    write_file(dir / "result.json", r.str());
    if (trace) {
      write_file(dir / "trace.json", obs::to_chrome_trace_json(first_trace));
      write_file(dir / "metrics.json", obs::Registry::global().to_json());
    }
  }

  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << m.str() << "}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::cerr << "usage: perfbench --workload cycle_alexnet|func_serve|"
                 "dse_sweep --seed N --seconds S --trace 0|1 [--out DIR]\n";
    return 2;
  }
  try {
    return run(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 1;
  }
}
