#include "cbrain/serve/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "cbrain/common/check.hpp"
#include "cbrain/nn/workload.hpp"
#include "cbrain/ref/params.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/obs/tracer.hpp"

namespace cbrain::serve {
namespace {

// FNV-1a over the raw output words — the digest clients (and the
// determinism tests) compare instead of hauling tensors around.
u64 digest_output(const Tensor3<Fixed16>& t) {
  u64 h = 0xcbf29ce484222325ull;
  for (const Fixed16& v : t.storage()) {
    const auto raw = static_cast<std::uint16_t>(v.raw());
    h ^= raw & 0xff;
    h *= 0x100000001b3ull;
    h ^= raw >> 8;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex16(u64 v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

std::string Response::to_string() const {
  std::ostringstream os;
  os << "id=" << id << " tenant=" << request.tenant
     << " model=" << request.model << " client=" << request.client
     << " req_tier=" << fidelity_name(request.tier)
     << " arrival=" << request.arrival_us << " deadline="
     << (request.deadline_us == kNoDeadline
             ? std::string("-")
             : std::to_string(request.deadline_us));
  if (!admitted) {
    os << " REJECTED reason=" << reject_reason_name(reject)
       << " latency=" << latency_us;
    return os.str();
  }
  os << " tier=" << fidelity_name(tier) << (degraded ? " DEGRADED" : "")
     << " dispatch=" << dispatch_us << " completion=" << completion_us
     << " latency=" << latency_us << " met=" << (met_deadline ? 1 : 0)
     << " batch=" << batch_size << " server=" << server;
  if (output_digest != 0) os << " digest=" << hex16(output_digest);
  return os.str();
}

// ---------------------------------------------------------------------------
// ServiceModel

i64 ServiceModel::unit_us(i64 macs, Fidelity tier) const {
  const double rate = tier == Fidelity::kCycle ? cycle_mac_per_s
                                               : functional_mac_per_s;
  CBRAIN_CHECK(rate > 0.0, "ServiceModel rate must be positive");
  const double us = per_request_us + 1e6 * static_cast<double>(macs) / rate;
  return std::max<i64>(1, std::llround(us));
}

i64 ServiceModel::batch_us(const std::vector<i64>& member_macs,
                           Fidelity tier) const {
  i64 total = std::max<i64>(1, std::llround(batch_overhead_us));
  for (i64 macs : member_macs) total += unit_us(macs, tier);
  return total;
}

const char* pressure_state_name(PressureState s) {
  switch (s) {
    case PressureState::kSteady:
      return "steady";
    case PressureState::kDegraded:
      return "degraded";
    case PressureState::kShedding:
      return "shedding";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// LoadStats

i64 LoadStats::ClassStats::percentile_us(double q) const {
  if (latencies_us.empty()) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const auto n = static_cast<i64>(latencies_us.size());
  i64 rank = static_cast<i64>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(n, std::max<i64>(1, rank));
  return latencies_us[static_cast<std::size_t>(rank - 1)];
}

double LoadStats::shed_rate() const {
  return offered == 0 ? 0.0
                      : static_cast<double>(rejected()) /
                            static_cast<double>(offered);
}

double LoadStats::degrade_rate() const {
  return offered == 0 ? 0.0
                      : static_cast<double>(degraded) /
                            static_cast<double>(offered);
}

double LoadStats::avg_batch() const {
  return batches == 0 ? 0.0
                      : static_cast<double>(admitted) /
                            static_cast<double>(batches);
}

double LoadStats::utilization() const {
  if (servers == 0 || horizon_us == 0) return 0.0;
  return static_cast<double>(server_busy_us) /
         (static_cast<double>(servers) * static_cast<double>(horizon_us));
}

double LoadStats::goodput_qps() const {
  if (horizon_us == 0) return 0.0;
  return 1e6 * static_cast<double>(met_deadline) /
         static_cast<double>(horizon_us);
}

i64 LoadStats::percentile_us(double q) const {
  // Merge once on demand: per-class vectors are already sorted.
  std::vector<i64> all;
  for (const auto& c : per_class)
    all.insert(all.end(), c.latencies_us.begin(), c.latencies_us.end());
  std::sort(all.begin(), all.end());
  if (all.empty()) return 0;
  q = std::min(1.0, std::max(0.0, q));
  const auto n = static_cast<i64>(all.size());
  i64 rank = static_cast<i64>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(n, std::max<i64>(1, rank));
  return all[static_cast<std::size_t>(rank - 1)];
}

std::string LoadStats::to_string() const {
  std::ostringstream os;
  os << "offered=" << offered << " admitted=" << admitted
     << " rejected{quota=" << rejected_quota
     << ",queue=" << rejected_queue_full << ",deadline=" << shed_deadline
     << "} degraded=" << degraded << " met_deadline=" << met_deadline
     << " batches=" << batches << " evictions=" << evictions
     << " transitions{degrade=" << degrade_transitions
     << ",shed=" << shed_transitions << "} peak_queue=" << peak_queue_depth
     << " horizon_us=" << horizon_us << " busy_us=" << server_busy_us
     << " servers=" << servers << "\n";
  for (int c = 0; c < kPriorityClasses; ++c) {
    const ClassStats& s = per_class[static_cast<std::size_t>(c)];
    if (s.offered == 0) continue;
    os << "  " << priority_name(static_cast<Priority>(c)) << ": offered="
       << s.offered << " admitted=" << s.admitted << " rejected{quota="
       << s.rejected_quota << ",queue=" << s.rejected_queue_full
       << ",deadline=" << s.shed_deadline << "} degraded=" << s.degraded
       << " met=" << s.met_deadline << " p50=" << s.percentile_us(0.50)
       << "us p99=" << s.percentile_us(0.99) << "us p999="
       << s.percentile_us(0.999) << "us\n";
  }
  return os.str();
}

std::string LoadStats::batch_hist_string() const {
  std::ostringstream os;
  bool first = true;
  for (std::size_t s = 1; s < batch_size_hist.size(); ++s) {
    if (batch_size_hist[s] == 0) continue;
    if (!first) os << ' ';
    os << s << ':' << batch_size_hist[s];
    first = false;
  }
  return os.str();
}

// ---------------------------------------------------------------------------
// Scheduler

Scheduler::Scheduler(engine::Engine& engine, SchedulerConfig config)
    : engine_(engine), config_(std::move(config)) {
  CBRAIN_CHECK(config_.servers > 0, "scheduler needs at least one server");
  CBRAIN_CHECK(config_.max_batch > 0 && config_.max_batch_cycle > 0,
               "batch caps must be positive");
  CBRAIN_CHECK(config_.low_watermark <= config_.degrade_watermark &&
                   config_.degrade_watermark <= config_.shed_watermark,
               "watermarks must be ordered low <= degrade <= shed");
}

i64 Scheduler::add_tenant(TenantConfig tenant) {
  Tenant t;
  t.config = std::move(tenant);
  t.tokens = t.config.burst;
  tenants_.push_back(std::move(t));
  return static_cast<i64>(tenants_.size()) - 1;
}

i64 Scheduler::add_model(Network net, Policy policy, u64 param_seed) {
  const i64 macs = analyze_workload(net).total_macs;
  const MapDims input_dims = net.layer(0).out_dims;
  models_.push_back(
      Model{std::move(net), policy, param_seed, macs, input_dims});
  return static_cast<i64>(models_.size()) - 1;
}

i64 Scheduler::unit_us(i64 model, Fidelity tier) const {
  return config_.service.unit_us(
      models_[static_cast<std::size_t>(model)].macs, tier);
}

RunResult Scheduler::run(const std::vector<Request>& trace, i64 jobs) {
  TraceSource source(trace);
  return run(source, jobs);
}

// The discrete-event core. Single-threaded by design: every decision
// happens here, in event order, on the virtual clock. The only
// parallelism is the deferred execution of admitted requests at the end.
struct Scheduler::Impl {
  Scheduler& self;
  ClientSource& source;

  // Event kinds, ordered for deterministic same-timestamp processing:
  // completions free servers before new arrivals are admitted, and batch
  // timers run before arrivals so a full-wait batch dispatches ahead of
  // traffic that lands on the same microsecond.
  enum Kind : int { kServerDone = 0, kBatchTimer = 1, kArrival = 2 };
  struct Event {
    i64 t = 0;
    int kind = kArrival;
    i64 a = 0;  // kArrival: stash index; kServerDone: server index
    i64 seq = 0;
    bool operator>(const Event& o) const {
      if (t != o.t) return t > o.t;
      if (kind != o.kind) return kind > o.kind;
      return seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  i64 event_seq = 0;
  std::vector<Request> stash;  // arrival payloads referenced by events

  struct Pending {
    i64 id = 0;
    Request req;
    Fidelity tier = Fidelity::kFunctional;  // effective (post-degrade)
    bool degraded = false;
  };
  std::array<std::vector<Pending>, kPriorityClasses> queues;
  i64 queued_total = 0;

  struct Server {
    bool busy = false;
    std::vector<i64> members;  // request ids of the in-flight batch
  };
  std::vector<Server> servers;

  i64 now = 0;
  PressureState state = PressureState::kSteady;
  std::vector<Response> responses;
  LoadStats stats;

  // Execution plan: admitted ids in completion order, grouped later.
  // `batch` is the dispatch ordinal of the formed batch the request rode
  // in, so deferred execution can replay the dispatcher's exact batches.
  struct Executed {
    i64 id;
    i64 model;
    Fidelity tier;
    u64 input_seed;
    i64 batch;
  };
  std::vector<Executed> executed;

  obs::Registry& reg = obs::Registry::global();
  obs::Tracer& tracer = obs::Tracer::global();
  bool tracing = false;
  std::vector<int> server_track;

  Impl(Scheduler& s, ClientSource& src) : self(s), source(src) {}

  LoadStats::ClassStats& cls_stats(Priority p) {
    return stats.per_class[static_cast<std::size_t>(p)];
  }
  std::vector<Pending>& queue_of(Priority p) {
    return queues[static_cast<std::size_t>(p)];
  }

  void push_arrivals(std::vector<Request> reqs) {
    for (Request& r : reqs) {
      r.arrival_us = std::max(r.arrival_us, now);
      stash.push_back(r);
      events.push({r.arrival_us, kArrival,
                   static_cast<i64>(stash.size()) - 1, event_seq++});
    }
  }

  void tenant_counter(i64 tenant, const char* what) {
    reg.counter("serve.tenant." +
                self.tenants_[static_cast<std::size_t>(tenant)].config.name +
                "." + what)
        .inc();
  }

  void finish(Response r) {
    // Terminal: record metrics, hand to the closed-loop hook, store.
    const auto p = self.tenants_[static_cast<std::size_t>(r.request.tenant)]
                       .config.priority;
    auto& cs = cls_stats(p);
    if (r.admitted) {
      ++stats.admitted;
      ++cs.admitted;
      cs.latencies_us.push_back(r.latency_us);
      if (r.met_deadline) {
        ++stats.met_deadline;
        ++cs.met_deadline;
      }
      if (r.degraded) {
        ++stats.degraded;
        ++cs.degraded;
        tenant_counter(r.request.tenant, "degraded");
      }
      tenant_counter(r.request.tenant, "admitted");
      reg.histogram("serve.tenant." +
                    self.tenants_[static_cast<std::size_t>(r.request.tenant)]
                        .config.name +
                    ".latency_ms")
          .observe(static_cast<double>(r.latency_us) / 1e3);
    } else {
      switch (r.reject) {
        case RejectReason::kQuota:
          ++stats.rejected_quota;
          ++cs.rejected_quota;
          tenant_counter(r.request.tenant, "rejected_quota");
          break;
        case RejectReason::kQueueFull:
          ++stats.rejected_queue_full;
          ++cs.rejected_queue_full;
          tenant_counter(r.request.tenant, "rejected_queue_full");
          break;
        case RejectReason::kDeadline:
          ++stats.shed_deadline;
          ++cs.shed_deadline;
          tenant_counter(r.request.tenant, "shed_deadline");
          break;
        case RejectReason::kNone:
          CBRAIN_CHECK(false, "rejected response without a reason");
      }
    }
    const auto id = static_cast<std::size_t>(r.id);
    responses[id] = std::move(r);
    push_arrivals(source.on_response(responses[id], now));
  }

  void update_pressure() {
    stats.peak_queue_depth = std::max(stats.peak_queue_depth, queued_total);
    const PressureState before = state;
    switch (state) {
      case PressureState::kSteady:
        if (queued_total >= self.config_.shed_watermark)
          state = PressureState::kShedding;
        else if (queued_total >= self.config_.degrade_watermark)
          state = PressureState::kDegraded;
        break;
      case PressureState::kDegraded:
        if (queued_total >= self.config_.shed_watermark)
          state = PressureState::kShedding;
        else if (queued_total <= self.config_.low_watermark)
          state = PressureState::kSteady;
        break;
      case PressureState::kShedding:
        if (queued_total < self.config_.degrade_watermark)
          state = PressureState::kDegraded;
        break;
    }
    if (state != before) {
      if (state == PressureState::kDegraded &&
          before == PressureState::kSteady) {
        ++stats.degrade_transitions;
        reg.counter("serve.degrade_transitions").inc();
      }
      if (state == PressureState::kShedding) {
        ++stats.shed_transitions;
        reg.counter("serve.shed_transitions").inc();
      }
      reg.gauge("serve.pressure_state").set(static_cast<double>(state));
    }
  }

  // Sheds queued requests whose deadline has already expired — always
  // before execution, never after paying for it.
  void shed_expired() {
    for (auto& q : queues) {
      for (std::size_t i = 0; i < q.size();) {
        if (q[i].req.deadline_us <= now) {
          Pending p = std::move(q[i]);
          q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
          --queued_total;
          --self.tenants_[static_cast<std::size_t>(p.req.tenant)].queued;
          Response r;
          r.id = p.id;
          r.request = p.req;
          r.admitted = false;
          r.reject = RejectReason::kDeadline;
          r.latency_us = now - p.req.arrival_us;
          finish(std::move(r));
        } else {
          ++i;
        }
      }
    }
  }

  i64 max_batch(Fidelity tier) const {
    return tier == Fidelity::kCycle ? self.config_.max_batch_cycle
                                    : self.config_.max_batch;
  }

  // EDF head of a class queue: earliest deadline, id as tie-break.
  static std::size_t edf_head(const std::vector<Pending>& q) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < q.size(); ++i) {
      const auto& a = q[i];
      const auto& b = q[best];
      if (a.req.deadline_us < b.req.deadline_us ||
          (a.req.deadline_us == b.req.deadline_us && a.id < b.id))
        best = i;
    }
    return best;
  }

  // Earliest armed batch-hold wakeup. One coalesced timer serves every
  // holding class: re-arming per class per call would let stale timers
  // multiply (each pop spawning several) and melt the event heap.
  i64 timer_at = kNoDeadline;

  // Dispatches batches onto idle servers until nothing is dispatchable,
  // then arms (at most) one wakeup for the earliest held batch.
  void try_dispatch() {
    shed_expired();
    i64 min_hold = kNoDeadline;
    dispatch_ready(&min_hold);
    if (min_hold < timer_at) {
      timer_at = min_hold;
      events.push({min_hold, kBatchTimer, 0, event_seq++});
    }
  }

  void dispatch_ready(i64* min_hold) {
    for (;;) {
      i64 server = -1;
      for (std::size_t s = 0; s < servers.size(); ++s)
        if (!servers[s].busy) {
          server = static_cast<i64>(s);
          break;
        }
      if (server < 0) return;

      // Highest class whose EDF-head batch is ready. A class whose head
      // batch is still holding for stragglers blocks only itself — lower
      // classes may use the idle server (EDF order within each class is
      // never violated; a held batch has a wakeup timer pending).
      bool dispatched = false;
      for (int cls = 0; cls < kPriorityClasses && !dispatched; ++cls) {
        auto& q = queues[static_cast<std::size_t>(cls)];
        if (q.empty()) continue;
        const Pending& head = q[edf_head(q)];
        const i64 cap = max_batch(head.tier);

        // Same-(model,tier) members of this class in EDF order.
        std::vector<std::size_t> member_idx;
        for (std::size_t i = 0; i < q.size(); ++i)
          if (q[i].req.model == head.req.model && q[i].tier == head.tier)
            member_idx.push_back(i);
        std::sort(member_idx.begin(), member_idx.end(),
                  [&](std::size_t a, std::size_t b) {
                    if (q[a].req.deadline_us != q[b].req.deadline_us)
                      return q[a].req.deadline_us < q[b].req.deadline_us;
                    return q[a].id < q[b].id;
                  });
        if (static_cast<i64>(member_idx.size()) > cap)
          member_idx.resize(static_cast<std::size_t>(cap));

        // Dynamic batching's max-wait budget: a short batch may hold for
        // stragglers, but only until its oldest member has waited
        // batch_wait_us — then it goes out as-is.
        const i64 hold_until =
            head.req.arrival_us + self.config_.batch_wait_us;
        if (static_cast<i64>(member_idx.size()) < cap && now < hold_until) {
          *min_hold = std::min(*min_hold, hold_until);
          continue;
        }

        dispatch(server, cls, member_idx);
        dispatched = true;
      }
      if (!dispatched) return;
    }
  }

  void dispatch(i64 server, int cls, const std::vector<std::size_t>& members) {
    auto& q = queues[static_cast<std::size_t>(cls)];
    std::vector<Pending> batch;
    batch.reserve(members.size());
    // Erase from the back so earlier indices stay valid.
    std::vector<std::size_t> sorted = members;
    std::sort(sorted.rbegin(), sorted.rend());
    for (std::size_t i : sorted) {
      batch.push_back(std::move(q[i]));
      q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
    }
    std::sort(batch.begin(), batch.end(),
              [](const Pending& a, const Pending& b) { return a.id < b.id; });
    queued_total -= static_cast<i64>(batch.size());
    update_pressure();

    std::vector<i64> macs;
    macs.reserve(batch.size());
    for (const Pending& p : batch) {
      macs.push_back(
          self.models_[static_cast<std::size_t>(p.req.model)].macs);
      --self.tenants_[static_cast<std::size_t>(p.req.tenant)].queued;
    }
    const Fidelity tier = batch.front().tier;
    const i64 service = self.config_.service.batch_us(macs, tier);
    const i64 done_at = now + service;

    Server& srv = servers[static_cast<std::size_t>(server)];
    srv.busy = true;
    srv.members.clear();
    ++stats.batches;
    if (stats.batch_size_hist.size() <= batch.size())
      stats.batch_size_hist.resize(batch.size() + 1, 0);
    ++stats.batch_size_hist[batch.size()];
    stats.server_busy_us += service;
    reg.counter("serve.batches").inc();
    reg.counter("serve.batched_requests").inc(
        static_cast<i64>(batch.size()));

    for (Pending& p : batch) {
      Response r;
      r.id = p.id;
      r.request = p.req;
      r.admitted = true;
      r.tier = p.tier;
      r.degraded = p.degraded;
      r.enqueue_us = p.req.arrival_us;
      r.dispatch_us = now;
      r.completion_us = done_at;
      r.batch_size = static_cast<i64>(batch.size());
      r.server = server;
      r.latency_us = done_at - p.req.arrival_us;
      r.met_deadline = done_at <= p.req.deadline_us;
      // Parked in responses until the kServerDone event finalizes it —
      // finish() runs at completion time so closed-loop clients react at
      // the right virtual instant.
      responses[static_cast<std::size_t>(p.id)] = std::move(r);
      srv.members.push_back(p.id);
      executed.push_back(
          {p.id, p.req.model, p.tier, p.req.input_seed, stats.batches});
    }
    events.push({done_at, kServerDone, server, event_seq++});

    if (tracing) {
      obs::Span sp;
      sp.domain = obs::Domain::kCycles;  // virtual-us clock, own tracks
      sp.track = server_track[static_cast<std::size_t>(server)];
      sp.start = now;
      sp.dur = service;
      const auto& model =
          self.models_[static_cast<std::size_t>(batch.front().req.model)];
      sp.name = "batch:" + model.net.name();
      sp.cat = "serve";
      sp.args.emplace_back("tier", fidelity_name(tier));
      sp.args.emplace_back("class",
                           priority_name(static_cast<Priority>(cls)));
      sp.args.emplace_back("requests", std::to_string(batch.size()));
      tracer.record(std::move(sp));
    }
  }

  void on_arrival(const Request& incoming) {
    // Re-evaluate pressure first: the queue may have drained since the
    // last decision, and a recovered scheduler must not keep degrading
    // fresh traffic on stale state.
    update_pressure();
    Request req = incoming;
    const i64 id = static_cast<i64>(responses.size());
    responses.emplace_back();
    Tenant& ten = self.tenants_[static_cast<std::size_t>(req.tenant)];
    const Priority prio = ten.config.priority;
    ++stats.offered;
    ++cls_stats(prio).offered;
    tenant_counter(req.tenant, "offered");

    auto reject = [&](RejectReason why) {
      Response r;
      r.id = id;
      r.request = req;
      r.admitted = false;
      r.reject = why;
      r.latency_us = 0;
      finish(std::move(r));
    };

    // (1) Token-bucket quota: refill at quota_qps up to burst, spend one
    // token per admitted request. Integer-microsecond refill arithmetic
    // on doubles is deterministic — same trace, same tokens.
    if (ten.config.quota_qps > 0.0) {
      const i64 dt = now - ten.last_refill_us;
      ten.tokens =
          std::min(ten.config.burst,
                   ten.tokens + static_cast<double>(dt) *
                                    ten.config.quota_qps / 1e6);
      ten.last_refill_us = now;
      if (ten.tokens < 1.0) {
        reject(RejectReason::kQuota);
        return;
      }
      ten.tokens -= 1.0;
    } else {
      ten.last_refill_us = now;
    }

    // (2) Dead on arrival.
    if (req.deadline_us <= now) {
      reject(RejectReason::kDeadline);
      return;
    }

    // (3) Bounded per-tenant queue.
    if (ten.queued >= ten.config.queue_cap) {
      reject(RejectReason::kQueueFull);
      return;
    }

    // (4) Global backpressure: shedding refuses best-effort arrivals
    // outright; a higher-class arrival instead evicts the queued
    // lower-class request with the slackest deadline, so the overload
    // lands on the traffic that can best absorb it.
    if (state == PressureState::kShedding) {
      if (prio == Priority::kBestEffort) {
        reject(RejectReason::kQueueFull);
        return;
      }
      int victim_cls = -1;
      for (int c = kPriorityClasses - 1; c > static_cast<int>(prio); --c)
        if (!queues[static_cast<std::size_t>(c)].empty()) {
          victim_cls = c;
          break;
        }
      if (victim_cls >= 0) {
        auto& vq = queues[static_cast<std::size_t>(victim_cls)];
        std::size_t vi = 0;
        for (std::size_t i = 1; i < vq.size(); ++i) {
          const auto& a = vq[i];
          const auto& b = vq[vi];
          if (a.req.deadline_us > b.req.deadline_us ||
              (a.req.deadline_us == b.req.deadline_us && a.id > b.id))
            vi = i;
        }
        Pending victim = std::move(vq[vi]);
        vq.erase(vq.begin() + static_cast<std::ptrdiff_t>(vi));
        --queued_total;
        --self.tenants_[static_cast<std::size_t>(victim.req.tenant)].queued;
        ++stats.evictions;
        reg.counter("serve.evictions").inc();
        Response r;
        r.id = victim.id;
        r.request = victim.req;
        r.admitted = false;
        r.reject = RejectReason::kQueueFull;
        r.latency_us = now - victim.req.arrival_us;
        finish(std::move(r));
      } else if (queued_total >= self.config_.shed_watermark) {
        // No lower-class work to displace and the queue is still at the
        // watermark: refuse even this request rather than queue unbounded.
        reject(RejectReason::kQueueFull);
        return;
      }
    }

    // (5) Graceful degradation: under pressure, best-effort cycle-tier
    // work reroutes to the functional tier — same bytes, estimated
    // counters, ~17x cheaper — before anything gets shed.
    Pending p;
    p.id = id;
    p.req = req;
    p.tier = req.tier;
    if (state != PressureState::kSteady &&
        prio == Priority::kBestEffort && req.tier == Fidelity::kCycle) {
      p.tier = Fidelity::kFunctional;
      p.degraded = true;
    }

    queue_of(prio).push_back(std::move(p));
    ++ten.queued;
    ++queued_total;
    update_pressure();
    try_dispatch();
  }

  void on_server_done(i64 server) {
    Server& srv = servers[static_cast<std::size_t>(server)];
    srv.busy = false;
    std::vector<i64> members = std::move(srv.members);
    srv.members.clear();
    for (i64 id : members) {
      Response r = std::move(responses[static_cast<std::size_t>(id)]);
      stats.horizon_us = std::max(stats.horizon_us, r.completion_us);
      finish(std::move(r));
    }
    // Completions are the drain edge of the hysteresis loop: step the
    // pressure state down here too, not only when something dispatches.
    update_pressure();
    try_dispatch();
  }

  void loop() {
    servers.resize(static_cast<std::size_t>(self.config_.servers));
    tracing = tracer.enabled();
    if (tracing) {
      server_track.resize(servers.size());
      for (std::size_t s = 0; s < servers.size(); ++s)
        server_track[s] = tracer.add_track(
            obs::Domain::kCycles,
            "serve: server " + std::to_string(s) + " (virtual us)");
    }
    push_arrivals(source.start());
    while (!events.empty()) {
      const Event ev = events.top();
      events.pop();
      CBRAIN_CHECK(ev.t >= now, "virtual clock moved backwards");
      now = ev.t;
      switch (ev.kind) {
        case kArrival:
          on_arrival(stash[static_cast<std::size_t>(ev.a)]);
          break;
        case kServerDone:
          on_server_done(ev.a);
          break;
        case kBatchTimer:
          timer_at = kNoDeadline;  // fired (or stale): re-arm as needed
          try_dispatch();
          break;
      }
    }
    CBRAIN_CHECK(queued_total == 0, "scheduler drained with queued work");
  }
};

RunResult Scheduler::run(ClientSource& source, i64 jobs) {
  CBRAIN_CHECK(!tenants_.empty(), "Scheduler::run with no tenants");
  CBRAIN_CHECK(!models_.empty(), "Scheduler::run with no models");
  // Fresh per-run tenant state: quota accounting starts full.
  for (Tenant& t : tenants_) {
    t.tokens = t.config.burst;
    t.last_refill_us = 0;
    t.queued = 0;
  }

  Impl impl(*this, source);
  impl.stats.servers = config_.servers;
  impl.loop();

  RunResult out;
  out.stats = std::move(impl.stats);
  out.responses = std::move(impl.responses);

  if (config_.execute && !impl.executed.empty()) {
    // Deferred execution of every admitted request through real
    // weight-resident sessions. Grouped by (model, effective tier), and
    // within each group the dispatcher's *formed batches* (by dispatch
    // ordinal) are replayed as engine::run_batches — each batch one
    // multi-image Session::infer_batch call, the same code path a
    // production dispatch would take — and digested into the responses.
    // Outputs are byte-identical to direct Session::infer (engine +
    // executor contracts), so the digests are jobs- and
    // batch-shape-independent.
    if (config_.collect_outputs)
      out.outputs.resize(out.responses.size());
    std::sort(impl.executed.begin(), impl.executed.end(),
              [](const Impl::Executed& a, const Impl::Executed& b) {
                if (a.model != b.model) return a.model < b.model;
                if (a.tier != b.tier) return a.tier < b.tier;
                if (a.batch != b.batch) return a.batch < b.batch;
                return a.id < b.id;
              });
    std::size_t i = 0;
    while (i < impl.executed.size()) {
      std::size_t j = i;
      while (j < impl.executed.size() &&
             impl.executed[j].model == impl.executed[i].model &&
             impl.executed[j].tier == impl.executed[i].tier)
        ++j;
      const Model& m =
          models_[static_cast<std::size_t>(impl.executed[i].model)];
      const auto params = init_net_params<Fixed16>(m.net, m.param_seed);
      std::vector<Tensor3<Fixed16>> inputs;
      inputs.reserve(j - i);
      for (std::size_t k = i; k < j; ++k)
        inputs.push_back(random_input<Fixed16>(
            m.input_dims, impl.executed[k].input_seed));
      // A formed batch is same-(model,tier) by construction, so its
      // members are contiguous here: runs of equal dispatch ordinal.
      std::vector<std::vector<i64>> batches;
      for (std::size_t k = i; k < j; ++k) {
        if (k == i ||
            impl.executed[k].batch != impl.executed[k - 1].batch)
          batches.emplace_back();
        batches.back().push_back(static_cast<i64>(k - i));
      }
      std::vector<Status> statuses;
      auto results = engine_.run_batches(
          m.net, m.policy, params, inputs, batches, jobs,
          /*stats=*/nullptr, impl.executed[i].tier, &statuses);
      for (std::size_t k = i; k < j; ++k) {
        CBRAIN_CHECK(statuses[k - i].is_ok(),
                     "serve execution failed: "
                         << statuses[k - i].to_string());
        auto& resp = out.responses[static_cast<std::size_t>(
            impl.executed[k].id)];
        resp.output_digest = digest_output(results[k - i].final_output);
        if (config_.collect_outputs)
          out.outputs[static_cast<std::size_t>(impl.executed[k].id)] =
              std::move(results[k - i].final_output);
      }
      i = j;
    }
  }

  for (auto& c : out.stats.per_class)
    std::sort(c.latencies_us.begin(), c.latencies_us.end());
  return out;
}

}  // namespace cbrain::serve
