#include "cbrain/common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace cbrain::parallel {
namespace {

// Sanity cap on worker counts (a --jobs typo must not fork-bomb the host).
constexpr i64 kMaxWorkers = 256;

// True on pool workers and on a caller's lane while it runs its share
// of a multi-lane parallel_for: a parallel_for started there runs inline.
thread_local bool tl_in_region = false;

std::atomic<i64>& default_jobs_slot() {
  static std::atomic<i64> jobs{hardware_jobs()};
  return jobs;
}

}  // namespace

// --- ThreadPool ------------------------------------------------------------

ThreadPool::ThreadPool(i64 threads) {
  std::lock_guard<std::mutex> lock(mu_);
  spawn_locked(clamp_i64(threads, 1, kMaxWorkers));
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CBRAIN_CHECK(!stop_, "submit on a stopped pool");
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

i64 ThreadPool::worker_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<i64>(workers_.size());
}

void ThreadPool::ensure_workers(i64 n) {
  std::lock_guard<std::mutex> lock(mu_);
  spawn_locked(clamp_i64(n, 1, kMaxWorkers) -
               static_cast<i64>(workers_.size()));
}

void ThreadPool::spawn_locked(i64 n) {
  for (i64 i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

void ThreadPool::worker_loop() {
  tl_in_region = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

ThreadPool& ThreadPool::shared() {
  // Leaked on purpose: workers must never outlive their pool object, and
  // exit-time destruction order across translation units is not ours to
  // control.
  static ThreadPool* pool = new ThreadPool(default_jobs());
  return *pool;
}

// --- facade ----------------------------------------------------------------

i64 hardware_jobs() {
  const auto n = static_cast<i64>(std::thread::hardware_concurrency());
  return n > 0 ? n : 1;
}

void set_default_jobs(i64 jobs) {
  default_jobs_slot().store(
      jobs <= 0 ? hardware_jobs() : clamp_i64(jobs, 1, kMaxWorkers));
}

i64 default_jobs() { return default_jobs_slot().load(); }

namespace {

// Shared state of one parallel_for call: an atomic index dispenser, a
// completion latch, and the lowest-index exception. Workers claim
// *chunks* of `grain` consecutive indices per fetch_add — one contended
// atomic per chunk instead of one per index, which matters when fn is
// cheap (fine-grained sweeps) — and every index still runs even after a
// failure so the rethrown exception does not depend on scheduling.
// Chunking is invisible to callers: results land in their own slots, and
// the lowest failing index wins regardless of chunk shape.
struct ForState {
  ForState(i64 total, i64 grain_, const std::function<void(i64)>& f)
      : n(total), grain(grain_), fn(f) {}

  const i64 n;
  const i64 grain;
  const std::function<void(i64)>& fn;
  std::atomic<i64> next{0};
  std::atomic<i64> done{0};
  std::mutex mu;
  std::condition_variable cv;
  i64 failed_index = -1;
  std::exception_ptr error;

  void run_indices() {
    for (;;) {
      const i64 begin = next.fetch_add(grain, std::memory_order_relaxed);
      if (begin >= n) return;
      const i64 end = std::min(begin + grain, n);
      for (i64 i = begin; i < end; ++i) {
        try {
          fn(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mu);
          if (failed_index < 0 || i < failed_index) {
            failed_index = i;
            error = std::current_exception();
          }
        }
      }
      const i64 ran = end - begin;
      if (done.fetch_add(ran, std::memory_order_acq_rel) + ran == n) {
        std::lock_guard<std::mutex> lock(mu);
        cv.notify_all();
      }
    }
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [this] { return done.load(std::memory_order_acquire) == n; });
  }
};

}  // namespace

void parallel_for(i64 n, const std::function<void(i64)>& fn, i64 jobs) {
  if (n <= 0) return;
  i64 j = jobs <= 0 ? default_jobs() : clamp_i64(jobs, 1, kMaxWorkers);
  j = std::min(j, n);
  // Serial path: --jobs 1 restores the exact pre-pool behaviour; nested
  // parallel regions run inline on their lane (see the nesting rule).
  if (j <= 1 || tl_in_region) {
    for (i64 i = 0; i < n; ++i) fn(i);
    return;
  }

  ThreadPool& pool = ThreadPool::shared();
  pool.ensure_workers(j);
  // Chunk size: ~4 chunks per lane balances dispenser traffic against
  // load imbalance from uneven per-index cost. Grain never affects
  // results — only which worker runs which index.
  const i64 grain = std::max<i64>(1, n / (j * 4));
  // The caller is the j-th lane; j-1 pool tasks join it on the dispenser.
  // shared_ptr keeps the state alive until the last straggler task (one
  // that lost the race for a chunk after wait() already returned) exits.
  auto state = std::make_shared<ForState>(n, grain, fn);
  for (i64 t = 0; t < j - 1; ++t)
    pool.submit([state] { state->run_indices(); });
  tl_in_region = true;
  state->run_indices();
  tl_in_region = false;
  state->wait();
  // Move the error out under the mutex that guarded its write: the plain
  // read was unsynchronized, and leaving the exception_ptr in ForState
  // let a straggler task destroy it on a worker thread while the caller
  // was still unwinding the rethrown exception.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace cbrain::parallel
