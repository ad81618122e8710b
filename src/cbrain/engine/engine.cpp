#include "cbrain/engine/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <exception>

#include "cbrain/common/check.hpp"
#include "cbrain/common/thread_pool.hpp"
#include "cbrain/obs/metrics.hpp"
#include "cbrain/obs/tracer.hpp"

namespace cbrain::engine {
namespace {

// 64-bit FNV-1a accumulator. Everything that feeds the compile-cache key
// goes through here as raw bytes; the mix_* helpers tag each field with a
// one-byte type marker so adjacent fields can't alias (e.g. the i64 pair
// (1, 2) hashes differently from (12, <nothing>)).
struct Fnv1a {
  u64 h = 0xcbf29ce484222325ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void tag(char t) { bytes(&t, 1); }
  void mix_i64(i64 v) {
    tag('i');
    bytes(&v, sizeof(v));
  }
  void mix_u64(u64 v) {
    tag('u');
    bytes(&v, sizeof(v));
  }
  void mix_double(double v) {
    // +0.0/-0.0 and NaN payloads are distinct bit patterns; config doubles
    // are plain literals so bit-equality is the right identity here.
    tag('d');
    u64 bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(v));
    bytes(&bits, sizeof(bits));
  }
  void mix_bool(bool v) { mix_i64(v ? 1 : 0); }
};

void mix_dims(Fnv1a& f, const MapDims& d) {
  f.mix_i64(d.d);
  f.mix_i64(d.h);
  f.mix_i64(d.w);
}

void mix_layer(Fnv1a& f, const Layer& l) {
  f.mix_i64(static_cast<i64>(l.kind));
  f.mix_i64(static_cast<i64>(l.inputs.size()));
  for (LayerId in : l.inputs) f.mix_i64(in);
  mix_dims(f, l.in_dims);
  mix_dims(f, l.out_dims);
  switch (l.kind) {
    case LayerKind::kInput: {
      mix_dims(f, std::get<InputParams>(l.params).dims);
      break;
    }
    case LayerKind::kConv: {
      const ConvParams& p = l.conv();
      f.mix_i64(p.dout);
      f.mix_i64(p.k);
      f.mix_i64(p.stride);
      f.mix_i64(p.pad);
      f.mix_i64(p.groups);
      f.mix_i64(p.dilation);
      f.mix_bool(p.relu);
      break;
    }
    case LayerKind::kPool: {
      const PoolParams& p = l.pool();
      f.mix_i64(static_cast<i64>(p.kind));
      f.mix_i64(p.k);
      f.mix_i64(p.stride);
      f.mix_i64(p.pad);
      break;
    }
    case LayerKind::kFC: {
      const FCParams& p = l.fc();
      f.mix_i64(p.dout);
      f.mix_bool(p.relu);
      break;
    }
    case LayerKind::kLRN: {
      const LRNParams& p = l.lrn();
      f.mix_i64(p.local_size);
      f.mix_double(p.alpha);
      f.mix_double(p.beta);
      f.mix_double(p.bias);
      break;
    }
    case LayerKind::kEltwiseAdd:
      f.mix_bool(l.eltwise().relu);
      break;
    case LayerKind::kConcat:
    case LayerKind::kSoftmax:
      break;  // no parameters beyond wiring and shapes
  }
}

void mix_config(Fnv1a& f, const AcceleratorConfig& c) {
  f.mix_i64(c.tin);
  f.mix_i64(c.tout);
  f.mix_double(c.clock_ghz);
  f.mix_i64(c.inout_buf.size_bytes);
  f.mix_i64(c.weight_buf.size_bytes);
  f.mix_i64(c.bias_buf.size_bytes);
  f.mix_double(c.dram.words_per_cycle);
  f.mix_i64(c.dram.latency_cycles);
  f.mix_bool(c.dram.row_buffer_model);
  f.mix_i64(c.dram.row_words);
  f.mix_i64(c.dram.row_miss_cycles);
}

// The Status a per-request channel reports for a captured failure: a
// failed CHECK is a malformed request, anything else an internal error.
Status status_of(std::exception_ptr failure) {
  try {
    std::rethrow_exception(failure);
  } catch (const CheckError& e) {
    return Status::invalid_argument(e.what());
  } catch (const std::exception& e) {
    return Status::internal(e.what());
  } catch (...) {
    return Status::internal("unknown exception");
  }
}

}  // namespace

u64 structural_hash(const Network& net, Policy policy,
                    const AcceleratorConfig& config, Fidelity fidelity) {
  Fnv1a f;
  f.mix_u64(0xcb7a140004ull);  // key-schema salt; bump when fields change
  f.mix_i64(static_cast<i64>(policy));
  f.mix_i64(static_cast<i64>(fidelity));
  mix_config(f, config);
  f.mix_i64(net.size());
  for (const Layer& l : net.layers()) mix_layer(f, l);
  return f.h;
}

// ---------------------------------------------------------------------------
// Session

Session::Session(Network net, std::shared_ptr<const CompiledNetwork> compiled,
                 const AcceleratorConfig& config, Fidelity fidelity)
    : net_(std::move(net)),
      compiled_(std::move(compiled)),
      fidelity_(fidelity) {
  CBRAIN_CHECK(compiled_ != nullptr, "Session needs a compiled program");
  // The executors hold references to net_ and *compiled_, both of which
  // this Session owns (the program via shared_ptr) — hence non-copyable
  // and constructed after the members they point at.
  if (fidelity_ == Fidelity::kFunctional)
    func_ = std::make_unique<func::FuncExecutor>(net_, *compiled_, config);
  else
    exec_ = std::make_unique<SimExecutor>(net_, *compiled_, config);
}

void Session::load_params(const NetParamsData<Fixed16>& params) {
  if (func_)
    func_->load_params(params);
  else
    exec_->load_params(params);
}

void Session::share_params(const Session& other) {
  CBRAIN_CHECK(func_ && other.func_, "share_params needs functional sessions");
  CBRAIN_CHECK(compiled_ == other.compiled_,
               "share_params across different compiled programs");
  func_->share_params(*other.func_);
}

const func::FuncExecutor::PackedParams* Session::packed_params() const {
  return func_ ? func_->packed_params() : nullptr;
}

bool Session::params_loaded() const {
  return func_ ? func_->params_loaded() : exec_->params_loaded();
}

SimResult Session::infer(const Tensor3<Fixed16>& input) {
  ++inferences_;
  return func_ ? func_->infer(input) : exec_->infer(input);
}

std::vector<SimResult> Session::infer_batch(
    const std::vector<const Tensor3<Fixed16>*>& inputs,
    std::vector<Status>* statuses) {
  inferences_ += static_cast<i64>(inputs.size());
  if (func_) return func_->infer_batch(inputs, statuses);
  // Cycle tier: the simulator streams one image at a time by design, so
  // a batch is a loop — same results, same per-slot Status isolation.
  std::vector<SimResult> results(inputs.size());
  if (statuses) statuses->assign(inputs.size(), Status::ok());
  for (std::size_t b = 0; b < inputs.size(); ++b) {
    try {
      CBRAIN_CHECK(inputs[b] != nullptr, "infer_batch: null input");
      results[b] = exec_->infer(*inputs[b]);
    } catch (...) {
      if (statuses == nullptr) throw;
      (*statuses)[b] = status_of(std::current_exception());
    }
  }
  return results;
}

void Session::attach_fault(FaultInjector* injector) {
  CBRAIN_CHECK(fidelity_ == Fidelity::kCycle,
               "fault injection requires the cycle-exact tier; the "
               "functional executor has no simulated components");
  exec_->attach_fault(injector);
}

// ---------------------------------------------------------------------------
// SessionPool

void SessionPool::add(std::unique_ptr<Session> session) {
  CBRAIN_CHECK(session != nullptr, "SessionPool::add(nullptr)");
  free_.push_back(session.get());
  sessions_.push_back(std::move(session));
}

Session* SessionPool::acquire() {
  CBRAIN_CHECK(!sessions_.empty(), "acquire() on an empty SessionPool");
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !free_.empty(); });
  Session* s = free_.back();
  free_.pop_back();
  return s;
}

void SessionPool::release(Session* session) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(session);
  }
  cv_.notify_one();
}

// ---------------------------------------------------------------------------
// ServeStats

double ServeStats::infer_per_s() const {
  if (latency_ms.empty() || wall_ms <= 0.0) return 0.0;
  return static_cast<double>(latency_ms.size()) / (wall_ms / 1e3);
}

double ServeStats::latency_percentile_ms(double q) const {
  if (latency_ms.empty()) return 0.0;
  obs::Histogram h;
  for (double v : latency_ms) h.observe(v);
  return h.percentile(std::min(1.0, std::max(0.0, q)));
}

// ---------------------------------------------------------------------------
// Engine

std::shared_ptr<const CompiledNetwork> Engine::compile(const Network& net,
                                                       Policy policy,
                                                       Fidelity fidelity) {
  const u64 key = structural_hash(net, policy, config_, fidelity);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++hits_;
      obs::Registry::global().counter("engine.compile_cache_hits").inc();
      return it->second;
    }
    ++misses_;
    obs::Registry::global().counter("engine.compile_cache_misses").inc();
  }
  // Compile outside the lock — whole-net compilation is the expensive
  // part and compile_network is pure. If two threads race on the same
  // key, both compile (deterministically, to identical programs) and the
  // first emplace wins; the loser's copy is discarded. Under tracing the
  // race would also duplicate the compile track's spans, so misses are
  // serialized and the cache rechecked once the compile lock is held.
  std::unique_lock<std::mutex> serialize;
  if (obs::Tracer::global().enabled()) {
    serialize = std::unique_lock<std::mutex>(compile_mu_);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  auto compiled = compile_network(net, policy, config_);
  CBRAIN_CHECK(compiled.is_ok(), "compile(" << net.name() << ", "
                                            << policy_name(policy) << "): "
                                            << compiled.status().to_string());
  auto owned = std::make_shared<const CompiledNetwork>(
      std::move(compiled).value());
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = cache_.emplace(key, std::move(owned));
  return it->second;
}

std::unique_ptr<Session> Engine::open_session(const Network& net,
                                              Policy policy,
                                              Fidelity fidelity) {
  return std::make_unique<Session>(net, compile(net, policy, fidelity),
                                   config_, fidelity);
}

std::unique_ptr<Session> Engine::open_session(
    const Network& net, Policy policy, const NetParamsData<Fixed16>& params,
    Fidelity fidelity) {
  auto session = open_session(net, policy, fidelity);
  session->load_params(params);
  return session;
}

std::unique_ptr<SessionPool> Engine::open_pool(
    const Network& net, Policy policy, const NetParamsData<Fixed16>& params,
    i64 n, Fidelity fidelity) {
  auto pool = std::make_unique<SessionPool>();
  auto first = open_session(net, policy, params, fidelity);
  const Session& lead = *first;
  pool->add(std::move(first));
  for (i64 i = 1; i < n; ++i) {
    auto s = open_session(net, policy, fidelity);
    if (fidelity == Fidelity::kFunctional)
      s->share_params(lead);
    else
      s->load_params(params);
    pool->add(std::move(s));
  }
  return pool;
}

std::vector<SimResult> Engine::run_many(
    const Network& net, Policy policy, const NetParamsData<Fixed16>& params,
    const std::vector<Tensor3<Fixed16>>& inputs, i64 jobs, ServeStats* stats,
    Fidelity fidelity, std::vector<Status>* statuses) {
  std::vector<std::vector<i64>> batches(inputs.size());
  for (std::size_t i = 0; i < batches.size(); ++i)
    batches[i].push_back(static_cast<i64>(i));
  return run_batches(net, policy, params, inputs, batches, jobs, stats,
                     fidelity, statuses);
}

std::vector<SimResult> Engine::run_batches(
    const Network& net, Policy policy, const NetParamsData<Fixed16>& params,
    const std::vector<Tensor3<Fixed16>>& inputs,
    const std::vector<std::vector<i64>>& batches, i64 jobs, ServeStats* stats,
    Fidelity fidelity, std::vector<Status>* statuses) {
  using Clock = std::chrono::steady_clock;
  using Ms = std::chrono::duration<double, std::milli>;
  const auto n = static_cast<i64>(inputs.size());
  if (statuses != nullptr)
    statuses->assign(static_cast<std::size_t>(n), Status::ok());

  // The batch list must partition [0, n) exactly: every request served
  // once, by exactly one batch.
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  i64 covered = 0;
  for (const auto& batch : batches) {
    CBRAIN_CHECK(!batch.empty(), "run_batches: empty batch");
    for (i64 idx : batch) {
      CBRAIN_CHECK(idx >= 0 && idx < n,
                   "run_batches: request index " << idx << " out of range");
      CBRAIN_CHECK(!seen[static_cast<std::size_t>(idx)],
                   "run_batches: request " << idx << " in two batches");
      seen[static_cast<std::size_t>(idx)] = 1;
      ++covered;
    }
  }
  CBRAIN_CHECK(covered == n,
               "run_batches: batches cover " << covered << " of " << n
                                             << " requests");
  if (n == 0) {
    if (stats != nullptr) *stats = ServeStats{};
    return {};
  }

  // Weight-resident session pool. Sessions are interchangeable for
  // results (a session's output doesn't depend on its serving history),
  // so the SessionPool free-list is enough: any idle session serves the
  // next batch, and results land in their submission slots regardless of
  // which session ran what.
  const auto nb = static_cast<i64>(batches.size());
  const i64 jobs_eff =
      std::max<i64>(1, jobs > 0 ? jobs : parallel::default_jobs());
  const i64 pool_n = std::min(jobs_eff, nb);
  auto pool = open_pool(net, policy, params, pool_n, fidelity);

  // Serving telemetry. The histograms record always (batch granularity —
  // a few mutex-guarded observes next to milliseconds of inference);
  // wall-domain spans record only while the tracer is on. Each session
  // gets its own wall track: a session serves one batch at a time, so
  // batch spans on a session track never overlap. The pre-acquire waits
  // (queue, free-session) can overlap across batches and are reported as
  // span args + histograms instead of spans.
  auto& reg = obs::Registry::global();
  reg.counter("engine.run_batches_total").inc();
  reg.counter("engine.requests_total").inc(n);
  reg.gauge("engine.session_pool").set(static_cast<double>(pool_n));
  auto& queue_wait_h = reg.histogram("engine.queue_wait_ms");
  auto& acquire_h = reg.histogram("engine.session_acquire_ms");
  auto& batch_size_h = reg.histogram("engine.batch_size");
  auto& infer_h = reg.histogram("engine.infer_ms");
  auto& request_h = reg.histogram("engine.request_latency_ms");

  obs::Tracer& tracer = obs::Tracer::global();
  const bool tracing = tracer.enabled();
  std::unordered_map<const Session*, int> track_of;
  int run_track = 0;
  if (tracing) {
    run_track = tracer.add_track(obs::Domain::kWall,
                                 "engine:" + net.name() + " run");
    for (i64 j = 0; j < pool_n; ++j)
      track_of[pool->at(j)] = tracer.add_track(
          obs::Domain::kWall,
          "engine:" + net.name() + " session " + std::to_string(j));
  }

  // Per-request failure isolation: with a status channel a malformed
  // input fails only its slot (Session::infer_batch reports it), so one
  // bad request cannot abandon its siblings through parallel_for's
  // first-failure barrier. Without one, the lowest failed index rethrows
  // once every batch has drained.
  std::mutex fail_mu;
  std::vector<std::pair<i64, std::exception_ptr>> failures;

  std::vector<SimResult> results(static_cast<std::size_t>(n));
  std::vector<double> latency_ms(static_cast<std::size_t>(n), 0.0);
  const auto run_start = Clock::now();
  const i64 run_start_us = tracing ? tracer.wall_now_us() : 0;
  parallel::parallel_for(
      nb,
      [&](i64 bi) {
        const auto& members = batches[static_cast<std::size_t>(bi)];
        const auto bsz = static_cast<i64>(members.size());
        std::vector<const Tensor3<Fixed16>*> ptrs;
        ptrs.reserve(members.size());
        for (i64 idx : members)
          ptrs.push_back(&inputs[static_cast<std::size_t>(idx)]);

        const auto task_start = Clock::now();
        Session* session = pool->acquire();
        const i64 acquired_us = tracing ? tracer.wall_now_us() : 0;
        const auto t0 = Clock::now();
        std::vector<Status> batch_statuses;
        std::vector<SimResult> batch_results;
        try {
          batch_results = session->infer_batch(
              ptrs, statuses != nullptr ? &batch_statuses : nullptr);
        } catch (...) {
          // A failed inference leaves no state the next one can read
          // (infer fully rewrites its inputs), so the session goes
          // straight back into rotation.
          pool->release(session);
          reg.counter("engine.request_failures").inc(bsz);
          if (statuses != nullptr) {
            // Per-request failures never throw through a status channel,
            // so this is an unexpected whole-batch error: report it on
            // every member rather than aborting the sibling batches.
            const Status st = status_of(std::current_exception());
            for (i64 idx : members)
              (*statuses)[static_cast<std::size_t>(idx)] = st;
            return;
          }
          const i64 lowest = *std::min_element(members.begin(), members.end());
          std::lock_guard<std::mutex> lock(fail_mu);
          failures.emplace_back(lowest, std::current_exception());
          return;
        }
        const auto t1 = Clock::now();
        // Stamped before the release: the next batch on this session
        // cannot start its span before this one ends.
        const i64 end_us = tracing ? tracer.wall_now_us() : 0;
        pool->release(session);

        const double queue_wait = Ms(task_start - run_start).count();
        const double acquire = Ms(t0 - task_start).count();
        const double infer = Ms(t1 - t0).count();
        queue_wait_h.observe(queue_wait);
        acquire_h.observe(acquire);
        batch_size_h.observe(static_cast<double>(bsz));
        infer_h.observe(infer);
        // A member's serving latency is its batch's inference time: the
        // whole batch starts and finishes together.
        for (std::size_t m = 0; m < members.size(); ++m) {
          const auto idx = static_cast<std::size_t>(members[m]);
          results[idx] = std::move(batch_results[m]);
          latency_ms[idx] = infer;
          request_h.observe(acquire + infer);
          if (statuses != nullptr) {
            if (!batch_statuses[m].is_ok())
              reg.counter("engine.request_failures").inc();
            (*statuses)[idx] = std::move(batch_statuses[m]);
          }
        }
        if (tracing) {
          obs::Span s;
          s.domain = obs::Domain::kWall;
          s.track = track_of[session];
          s.start = acquired_us;
          s.dur = std::max<i64>(0, end_us - acquired_us);
          s.name = "batch";
          s.cat = "batch";
          s.args.emplace_back("tier", fidelity_name(fidelity));
          s.args.emplace_back("batch_size", std::to_string(bsz));
          s.args.emplace_back("queue_wait_ms", std::to_string(queue_wait));
          s.args.emplace_back("session_acquire_ms", std::to_string(acquire));
          s.args.emplace_back("infer_ms", std::to_string(infer));
          tracer.record(std::move(s));
        }
      },
      jobs_eff);
  if (!failures.empty()) {
    // Only reachable without a status channel: the lowest failed global
    // index rethrows (deterministically, independent of scheduling).
    std::sort(failures.begin(), failures.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::rethrow_exception(failures.front().second);
  }
  if (tracing) {
    obs::Span s;
    s.domain = obs::Domain::kWall;
    s.track = run_track;
    s.start = run_start_us;
    s.dur = tracer.wall_now_us() - run_start_us;
    s.name = "run_batches:" + net.name();
    s.cat = "run";
    s.args.emplace_back("tier", fidelity_name(fidelity));
    s.args.emplace_back("requests", std::to_string(n));
    s.args.emplace_back("batches", std::to_string(nb));
    s.args.emplace_back("sessions", std::to_string(pool_n));
    tracer.record(std::move(s));
  }
  if (stats != nullptr) {
    stats->latency_ms = std::move(latency_ms);
    stats->wall_ms = Ms(Clock::now() - run_start).count();
    stats->sessions = pool_n;
  }
  return results;
}

i64 Engine::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<i64>(cache_.size());
}

i64 Engine::cache_hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

i64 Engine::cache_misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace cbrain::engine
