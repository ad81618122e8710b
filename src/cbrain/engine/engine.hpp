// cbrain::engine — the inference-serving layer over the cycle-level
// simulator. The paper's accelerator is an inference engine: the host
// loads a pre-trained model's weights into external memory once, then
// streams input frames through the resident program. This module gives
// the reproduction the same shape:
//
//   Engine  — owns the accelerator configuration and a thread-safe
//             compiled-program cache keyed by a *structural* hash of
//             (network topology, config, policy) — two structurally
//             different networks that happen to share a name can never
//             alias a program, and two structurally identical networks
//             share one.
//   Session — a weight-resident simulator instance: open_session()
//             compiles (cached), builds the SimMachine, and materializes
//             the parameters into simulated DRAM exactly once; infer()
//             then streams one input image through with zero
//             reallocation. infer ×N is bit- and counter-identical to N
//             independent CBrain::simulate calls (tests/test_engine.cpp).
//   run_batches — fans request batches across a pool of sessions via
//             the cbrain::parallel thread pool, one Session::infer_batch
//             call per batch; run_many serves each request as a batch of
//             one. Results come back in submission order and are
//             byte-identical at any --jobs, because a session's output is
//             independent of what it served before.
//
// Determinism contract: a Session mutates only state that the next
// inference fully rewrites before reading (input cubes, SRAM bands,
// partial sums) or never reads (monotonic stats, attributed as deltas),
// so which session of a pool serves a request cannot affect its bytes.
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cbrain/common/status.hpp"
#include "cbrain/compiler/compiler.hpp"
#include "cbrain/func/executor.hpp"
#include "cbrain/func/fidelity.hpp"
#include "cbrain/ref/params.hpp"
#include "cbrain/sim/executor.hpp"

namespace cbrain::engine {

// Order-sensitive FNV-1a over the network's topology (layer kinds,
// parameters, wiring, shapes — NOT names), the accelerator configuration,
// the policy, and the execution fidelity. This is the compile-cache key:
// anything that can change the emitted program — or which tier a cached
// entry was fetched for — must feed the hash.
u64 structural_hash(const Network& net, Policy policy,
                    const AcceleratorConfig& config,
                    Fidelity fidelity = Fidelity::kCycle);

// A weight-resident session at either fidelity. Not thread-safe: one
// batch at a time per session (Engine::run_batches pools sessions for
// concurrency). Fidelity::kCycle wraps the cycle-exact SimExecutor;
// Fidelity::kFunctional wraps func::FuncExecutor — bit-identical outputs,
// analytical counter estimates (DESIGN.md §12).
class Session {
 public:
  // `compiled` must have been produced for `net` under `config`.
  Session(Network net, std::shared_ptr<const CompiledNetwork> compiled,
          const AcceleratorConfig& config,
          Fidelity fidelity = Fidelity::kCycle);
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const Network& net() const { return net_; }
  const CompiledNetwork& compiled() const { return *compiled_; }
  Fidelity fidelity() const { return fidelity_; }

  // Materializes weights/biases into the session's simulated DRAM
  // (cycle) or packed GEMM rows (functional). Must run before the first
  // infer(); may run again to hot-swap parameters.
  void load_params(const NetParamsData<Fixed16>& params);
  bool params_loaded() const;
  // Functional only: serves from `other`'s packed weights (a loaded
  // functional session over the same compiled program) without packing
  // again. A later load_params on either session builds it a fresh pack,
  // leaving the other's untouched.
  void share_params(const Session& other);
  // The packed weight set a functional session serves from (null at
  // cycle fidelity or before load_params); pool siblings share one.
  const func::FuncExecutor::PackedParams* packed_params() const;

  // Streams one input image through the resident executor. At either
  // fidelity the output bytes match a fresh single-shot cycle simulate
  // of the same input; counters are exact (cycle) or model estimates
  // (functional).
  SimResult infer(const Tensor3<Fixed16>& input);

  // Runs B inputs as one batched call: the functional tier executes them
  // layer-wise as multi-image GEMMs (weights stream once per layer per
  // batch), the cycle tier falls back to a sequential loop. Per-slot
  // results are bit-identical to B sequential infer() calls. With
  // `statuses` non-null a malformed input fails only its slot (empty
  // SimResult + non-OK Status); with statuses null the historical
  // CHECK/throw contract applies. inferences() advances by B.
  std::vector<SimResult> infer_batch(
      const std::vector<const Tensor3<Fixed16>*>& inputs,
      std::vector<Status>* statuses = nullptr);

  // Attaches (nullptr detaches) a fault injector to the session's
  // machine, enabling checkpoint/replay recovery exactly as on the
  // single-shot path. Attach before load_params for a fault sequence
  // identical to SimExecutor::run with the same injector. Cycle fidelity
  // only: the functional tier has no simulated components to corrupt
  // (CHECK-fails on a functional session).
  void attach_fault(FaultInjector* injector);

  // Inferences served since open (diagnostics).
  i64 inferences() const { return inferences_; }

 private:
  Network net_;  // owned copy: sessions outlive their construction site
  std::shared_ptr<const CompiledNetwork> compiled_;
  Fidelity fidelity_ = Fidelity::kCycle;
  std::unique_ptr<SimExecutor> exec_;         // kCycle
  std::unique_ptr<func::FuncExecutor> func_;  // kFunctional
  i64 inferences_ = 0;
};

// A fixed set of interchangeable weight-resident sessions behind a
// mutex/condvar free-list. Any idle session may serve any request (a
// session's output is independent of its serving history — the Session
// determinism contract above), so acquire() hands back whichever session
// freed most recently. Thread-safe; sessions are owned by the pool.
class SessionPool {
 public:
  SessionPool() = default;
  SessionPool(const SessionPool&) = delete;
  SessionPool& operator=(const SessionPool&) = delete;

  // Adds a session to the pool (idle). Not thread-safe against
  // concurrent acquire/release; populate before sharing.
  void add(std::unique_ptr<Session> session);

  i64 size() const { return static_cast<i64>(sessions_.size()); }
  // i-th pooled session (diagnostics / track naming); does not acquire.
  Session* at(i64 i) const { return sessions_[static_cast<std::size_t>(i)].get(); }

  // Blocks until a session is free. Pool must be non-empty.
  Session* acquire();
  // Returns a session obtained from acquire(). Safe to call after a
  // failed infer: the next inference fully rewrites every word it reads,
  // so a session that threw is indistinguishable from an idle one.
  void release(Session* session);

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::unique_ptr<Session>> sessions_;
  std::vector<Session*> free_;
};

// Serving metrics of one Engine::run_batches (or run_many) call.
struct ServeStats {
  std::vector<double> latency_ms;  // per request, submission order
  double wall_ms = 0.0;            // whole-run wall clock
  i64 sessions = 0;                // pool size used

  double infer_per_s() const;
  // Nearest-rank percentile over latency_ms via obs::Histogram's
  // log-scale buckets (±9% relative resolution, exact at the extremes);
  // q in [0, 1].
  double latency_percentile_ms(double q) const;
};

class Engine {
 public:
  explicit Engine(AcceleratorConfig config) : config_(std::move(config)) {}
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const AcceleratorConfig& config() const { return config_; }

  // Compile-or-fetch under the structural key (which includes the
  // fidelity — the two tiers never alias a cache entry). Thread-safe:
  // concurrent callers for the same key receive the same shared program
  // (a lost insertion race discards the duplicate). CHECK-fails when the
  // network cannot be tiled into the configured buffers.
  std::shared_ptr<const CompiledNetwork> compile(
      const Network& net, Policy policy,
      Fidelity fidelity = Fidelity::kCycle);

  // Opens a weight-resident session at the given fidelity (compile is
  // cached). The params-less forms leave parameters to a later
  // load_params() — needed when a fault injector must observe the
  // materialization writes.
  std::unique_ptr<Session> open_session(const Network& net, Policy policy,
                                        Fidelity fidelity = Fidelity::kCycle);
  std::unique_ptr<Session> open_session(const Network& net, Policy policy,
                                        const NetParamsData<Fixed16>& params,
                                        Fidelity fidelity = Fidelity::kCycle);

  // Opens a pool of `n` weight-resident sessions over one shared compiled
  // program (compile is cached once). Cycle sessions each materialize
  // the weights into their own DRAM; functional sessions pack once and
  // share that immutable pack.
  std::unique_ptr<SessionPool> open_pool(const Network& net, Policy policy,
                                         const NetParamsData<Fixed16>& params,
                                         i64 n,
                                         Fidelity fidelity = Fidelity::kCycle);

  // Serves pre-formed batches: `batches` must partition [0, #inputs)
  // exactly (every index once, no empties). Each batch executes as one
  // Session::infer_batch call on one pooled session — the functional
  // tier's multi-image GEMM path, the cycle tier's per-image loop — with
  // batches fanned across min(jobs, #batches) weight-resident sessions
  // (jobs <= 0 uses parallel::default_jobs()). Results land in submission
  // order and are byte-identical to sequential Session::infer at any jobs,
  // batch shape, or fidelity. `stats`, when given, records each request's
  // latency as its batch's inference time, and the run's throughput.
  //
  // Failure isolation: a request whose inference fails (e.g. malformed
  // input dims) does not poison its siblings. With `statuses` given, it
  // receives one Status per request (failed slots keep a default
  // SimResult) and run_batches never throws for per-request failures;
  // with statuses == nullptr the lowest-index failure is rethrown after
  // every batch drains.
  //
  // Layer kernels fan out across the worker pool only when a single
  // batch runs; with several in flight each runs its layers inline
  // (cbrain::parallel's nesting rule). Outputs are byte-identical either
  // way.
  std::vector<SimResult> run_batches(
      const Network& net, Policy policy, const NetParamsData<Fixed16>& params,
      const std::vector<Tensor3<Fixed16>>& inputs,
      const std::vector<std::vector<i64>>& batches, i64 jobs = 0,
      ServeStats* stats = nullptr, Fidelity fidelity = Fidelity::kCycle,
      std::vector<Status>* statuses = nullptr);

  // run_batches with every request in a batch of its own.
  std::vector<SimResult> run_many(const Network& net, Policy policy,
                                  const NetParamsData<Fixed16>& params,
                                  const std::vector<Tensor3<Fixed16>>& inputs,
                                  i64 jobs = 0, ServeStats* stats = nullptr,
                                  Fidelity fidelity = Fidelity::kCycle,
                                  std::vector<Status>* statuses = nullptr);

  // Cache observability (diagnostics and tests).
  i64 cache_size() const;
  i64 cache_hits() const;
  i64 cache_misses() const;

 private:
  AcceleratorConfig config_;
  mutable std::mutex mu_;
  // Serializes cache-miss compiles while the span tracer is enabled, so a
  // racing pair of threads can't both run assign_schemes and emit the
  // same compile track twice. Never taken when tracing is off — the
  // benign both-compile race stays on the fast path.
  std::mutex compile_mu_;
  std::unordered_map<u64, std::shared_ptr<const CompiledNetwork>> cache_;
  i64 hits_ = 0;
  i64 misses_ = 0;
};

}  // namespace cbrain::engine
