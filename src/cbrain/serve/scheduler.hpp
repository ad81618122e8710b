// cbrain::serve — the multi-tenant serving control plane (DESIGN.md §13):
// admission control, deadline-aware dispatch, backpressure and graceful
// tier degradation layered on engine::Engine's weight-resident sessions.
//
// The scheduler is a deterministic discrete-event machine on a synthetic
// clock (virtual microseconds). Every control decision — admit/reject,
// queue order, batch membership, shed, degrade — is a pure function of
// the offered trace and the configuration: service times come from a
// deterministic MAC-rate model (calibrated against BENCH_kernels.json
// host throughput, not measured live), so the same seed and trace
// produce byte-identical responses and metrics at any --jobs count and
// across reruns. The host thread count only parallelizes the *execution*
// of admitted work (engine::run_batches, itself byte-deterministic); it can
// never reorder a decision. Real clocks exist only in the CLI path.
//
// Pipeline per request:
//
//   arrival ── admission ──> per-class EDF queue ── dispatch ──> batch ──> server
//              │ token bucket (kQuota)        │ earliest deadline first
//              │ tenant queue cap (kQueueFull)│ same-(model,tier) coalescing
//              │ shed watermark: best-effort  │ under a max-wait budget
//              │   rejected / lowest-priority │ expired deadlines shed
//              │   latest-deadline evicted    │ before execution (kDeadline)
//              └ degrade watermark: best-effort cycle-tier traffic reroutes
//                to the functional tier (bit-identical outputs, estimated
//                counters — visible to the client as tier != requested)
//
// Backpressure state machine over the global queue depth Q:
//
//   kSteady ── Q >= degrade_wm ──> kDegraded ── Q >= shed_wm ──> kShedding
//      ^                              │   ^                          │
//      └──────── Q <= low_wm ─────────┘   └──── Q < degrade_wm ──────┘
#pragma once

#include <array>
#include <memory>
#include <queue>
#include <vector>

#include "cbrain/engine/engine.hpp"
#include "cbrain/nn/network.hpp"
#include "cbrain/serve/request.hpp"

namespace cbrain::serve {

// Deterministic host-side service-time model. The serving fleet is
// host-bound (the "accelerators" are simulated), so a request's service
// time is its MAC count over the tier's sustained host throughput —
// defaults taken from the committed perf baseline (AlexNet avx2:
// ~4.5e8 MAC/s cycle-exact, ~7.5e9 MAC/s functional, the ~17x two-tier
// split of DESIGN.md §12). Using a model instead of live measurement is
// what keeps scheduler decisions byte-identical across reruns; the CLI
// can override the rates to recalibrate.
struct ServiceModel {
  double cycle_mac_per_s = 4.5e8;
  double functional_mac_per_s = 7.5e9;
  double per_request_us = 30.0;     // host dispatch/copy cost per request
  double batch_overhead_us = 150.0; // fixed cost per dispatched batch

  i64 unit_us(i64 macs, Fidelity tier) const;
  // batch_overhead + sum of unit costs (callers pass the batch's MACs).
  i64 batch_us(const std::vector<i64>& member_macs, Fidelity tier) const;
};

enum class PressureState : int { kSteady = 0, kDegraded = 1, kShedding = 2 };
const char* pressure_state_name(PressureState s);

struct SchedulerConfig {
  i64 servers = 4;  // simulated accelerator hosts serving in parallel

  // Dynamic batch formation: coalesce same-(model,tier) requests of one
  // priority class into one batch, dispatching when the batch is
  // full or its oldest member has waited batch_wait_us. The cycle tier
  // gets a smaller cap: its requests are ~17x longer, and a full cycle
  // batch would hog a server against latency-sensitive traffic.
  i64 max_batch = 8;
  i64 max_batch_cycle = 2;
  i64 batch_wait_us = 2000;

  // Global-queue watermarks (requests queued across all classes).
  i64 low_watermark = 16;      // hysteresis exit back to kSteady
  i64 degrade_watermark = 32;  // reroute best-effort cycle -> functional
  i64 shed_watermark = 96;     // refuse/evict best-effort work

  // Execute admitted requests for real through engine::run_batches — the
  // exact batches the dispatcher formed run as single multi-image
  // Session::infer_batch calls (outputs digest into
  // Response::output_digest; byte-identical to direct Session::infer).
  // Off for pure scheduling studies — decisions and virtual latencies
  // are identical either way.
  bool execute = true;
  bool collect_outputs = false;  // keep output tensors in RunResult

  ServiceModel service;
};

// Source of offered traffic. start() yields the initial arrivals;
// on_response() is invoked for every terminal response (admission
// rejects included) and may inject follow-up arrivals — the closed-loop
// hook. Arrivals in the past are clamped to `now`.
class ClientSource {
 public:
  virtual ~ClientSource() = default;
  virtual std::vector<Request> start() = 0;
  virtual std::vector<Request> on_response(const Response& r, i64 now_us) {
    (void)r;
    (void)now_us;
    return {};
  }
};

// Adapts a pre-generated open-loop trace (loadgen.hpp) to ClientSource.
class TraceSource : public ClientSource {
 public:
  explicit TraceSource(std::vector<Request> trace)
      : trace_(std::move(trace)) {}
  std::vector<Request> start() override { return trace_; }

 private:
  std::vector<Request> trace_;
};

// Aggregate accounting for one Scheduler::run. All counts are decision
// counts (deterministic); latencies are virtual microseconds.
struct LoadStats {
  struct ClassStats {
    i64 offered = 0;
    i64 admitted = 0;
    i64 rejected_quota = 0;
    i64 rejected_queue_full = 0;
    i64 shed_deadline = 0;
    i64 degraded = 0;
    i64 met_deadline = 0;
    std::vector<i64> latencies_us;  // admitted only; sorted at finalize

    // Nearest-rank percentile, q in [0,1]; 0 when empty.
    i64 percentile_us(double q) const;
  };

  i64 offered = 0;
  i64 admitted = 0;
  i64 rejected_quota = 0;
  i64 rejected_queue_full = 0;
  i64 shed_deadline = 0;
  i64 degraded = 0;
  i64 met_deadline = 0;
  i64 batches = 0;
  i64 evictions = 0;            // queued work displaced by higher classes
  i64 degrade_transitions = 0;  // entries into kDegraded
  i64 shed_transitions = 0;     // entries into kShedding
  i64 peak_queue_depth = 0;
  i64 horizon_us = 0;  // last completion (makespan of the run)
  i64 server_busy_us = 0;
  i64 servers = 0;
  // Realized batch sizes: batch_size_hist[s] counts dispatched batches
  // of exactly s members (index 0 unused). A decision-level count, so it
  // is byte-identical across --jobs like every other field here.
  std::vector<i64> batch_size_hist;
  std::array<ClassStats, kPriorityClasses> per_class;

  const ClassStats& cls(Priority p) const {
    return per_class[static_cast<std::size_t>(p)];
  }
  i64 rejected() const {
    return rejected_quota + rejected_queue_full + shed_deadline;
  }
  double shed_rate() const;     // rejected / offered
  double degrade_rate() const;  // degraded / offered
  double avg_batch() const;     // admitted / batches
  double utilization() const;   // busy / (servers * horizon)
  double goodput_qps() const;   // deadline-met completions per second
  i64 percentile_us(double q) const;  // over all admitted latencies

  // Stable multi-line rendering — byte-compared by the determinism tests.
  std::string to_string() const;
  // Compact "size:count" rendering of batch_size_hist ("1:3 4:2 8:17");
  // empty string when no batch was dispatched.
  std::string batch_hist_string() const;
};

struct RunResult {
  std::vector<Response> responses;  // indexed by request id (arrival order)
  LoadStats stats;
  // Only with SchedulerConfig::collect_outputs: indexed by request id,
  // empty tensors for non-admitted requests.
  std::vector<Tensor3<Fixed16>> outputs;
};

class Scheduler {
 public:
  Scheduler(engine::Engine& engine, SchedulerConfig config);
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  // Registration (before run). Returns the tenant/model index requests
  // refer to. Parameters are materialized lazily at execution time from
  // param_seed (ref/params.hpp conventions), so decision-only runs never
  // touch weights.
  i64 add_tenant(TenantConfig tenant);
  i64 add_model(Network net, Policy policy, u64 param_seed);

  const SchedulerConfig& config() const { return config_; }
  const TenantConfig& tenant(i64 i) const {
    return tenants_[static_cast<std::size_t>(i)].config;
  }
  // Deterministic per-request service estimate for a registered model.
  i64 unit_us(i64 model, Fidelity tier) const;

  // Serves everything `source` offers until traffic and servers drain.
  // `jobs` parallelizes only the execution of admitted work. Responses
  // come back indexed by request id; one terminal response per request.
  RunResult run(ClientSource& source, i64 jobs = 0);
  RunResult run(const std::vector<Request>& trace, i64 jobs = 0);

 private:
  struct Impl;
  engine::Engine& engine_;
  SchedulerConfig config_;

  struct Tenant {
    TenantConfig config;
    double tokens = 0.0;
    i64 last_refill_us = 0;
    i64 queued = 0;
  };
  struct Model {
    Network net;
    Policy policy = Policy::kAdaptive2;
    u64 param_seed = 0;
    i64 macs = 0;
    MapDims input_dims;
  };
  std::vector<Tenant> tenants_;
  std::vector<Model> models_;
};

}  // namespace cbrain::serve
