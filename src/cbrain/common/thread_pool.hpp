// cbrain::parallel — the process-wide worker pool behind every sweep.
//
// Design-space exploration is embarrassingly parallel across
// (network × scheme × accelerator-config) points, so the bench harness,
// the CLI and the examples all fan out through the two facades here:
//
//   parallel_for(n, fn)  — invoke fn(i) for every i in [0, n)
//   parallel_map<T>(n, fn) — same, collecting fn(i) into slot i
//
// Guarantees the callers rely on (tests/test_parallel.cpp):
//   * Deterministic ordering — results land in index order regardless of
//     which worker ran which index, so a parallel sweep prints the exact
//     same tables as a serial one.
//   * Exception-collecting barrier — every index either runs or is
//     abandoned after a failure; the facade then rethrows the exception of
//     the *lowest failed index* (again independent of scheduling).
//   * Nesting rule — a parallel_for started inside another multi-lane
//     parallel_for (on a pool worker or on the caller's own lane) runs
//     inline on that thread; only a region started from a serial context
//     fans out. Request-level fan-out therefore fills the pool first,
//     and a layer kernel spreads across it only when it is the only
//     thing running — no per-call width knob needed, no queue deadlock.
//
// Tasks must not share mutable state (in particular a SimMachine/CBrain
// instance — see DESIGN.md "Concurrency model"); each sweep point builds
// its own.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "cbrain/common/math_util.hpp"

namespace cbrain::parallel {

// A fixed set of worker threads draining a FIFO task queue. Most callers
// never touch this directly — the parallel_for/parallel_map facades below
// schedule onto a shared instance — but it is a public type so tests and
// long-lived services can own a pool with an explicit lifetime.
class ThreadPool {
 public:
  explicit ThreadPool(i64 threads);
  ~ThreadPool();  // waits for queued tasks, then joins the workers
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);
  i64 worker_count() const;
  // Grows the pool to at least `n` workers (never shrinks).
  void ensure_workers(i64 n);

  // The process-wide pool the facades use. Created on first use, sized to
  // default_jobs(), grown on demand; intentionally never destroyed so
  // exit-time destructor ordering can't race a draining queue.
  static ThreadPool& shared();

 private:
  void spawn_locked(i64 n);
  void worker_loop();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

// max(1, std::thread::hardware_concurrency()).
i64 hardware_jobs();

// Process-wide default worker count used when a facade is called with
// jobs == 0. Initially hardware_jobs(); the CLI's --jobs and the bench
// harness's --jobs / CBRAIN_JOBS override it at startup. jobs <= 0 resets
// to hardware_jobs().
void set_default_jobs(i64 jobs);
i64 default_jobs();

// Invokes fn(i) for every i in [0, n). With jobs == 1 (or n <= 1, or when
// called from inside another multi-lane region) this degenerates to the
// plain serial loop on the calling thread — bit-identical behaviour, no
// pool involvement.
void parallel_for(i64 n, const std::function<void(i64)>& fn, i64 jobs = 0);

// parallel_for that collects results: out[i] = fn(i). T must be
// default-constructible; slots of failed/abandoned indices stay
// default-constructed (the first failure is rethrown, so callers never
// observe them).
template <typename T>
std::vector<T> parallel_map(i64 n, const std::function<T(i64)>& fn,
                            i64 jobs = 0) {
  std::vector<T> out(static_cast<std::size_t>(n < 0 ? 0 : n));
  parallel_for(
      n, [&](i64 i) { out[static_cast<std::size_t>(i)] = fn(i); }, jobs);
  return out;
}

}  // namespace cbrain::parallel
