// cbrain::serve — request/response vocabulary of the multi-tenant serving
// front end (DESIGN.md §13).
//
// A Request is one tenant's inference: which registered model, which
// execution tier it wants, when it arrived and by when it must finish —
// all timestamps in *virtual microseconds* on the scheduler's synthetic
// clock, so every admission, dispatch and shed decision is a pure
// function of the offered trace (byte-identical across reruns and
// --jobs counts; tests/test_serve.cpp).
//
// A Response always comes back, even for work the scheduler refuses:
// overload surfaces as an explicit Rejected{kQuota,kQueueFull,kDeadline}
// status instead of silent unbounded queuing, and graceful degradation
// surfaces as `tier` differing from `tier_requested` (the functional
// tier computes bit-identical outputs, so a degraded client loses only
// counter exactness — DESIGN.md §12).
#pragma once

#include <limits>
#include <string>

#include "cbrain/common/math_util.hpp"
#include "cbrain/func/fidelity.hpp"
#include "cbrain/tensor/tensor.hpp"

namespace cbrain::serve {

// Dispatch order and shed order. The dispatcher serves the highest
// nonempty class first (EDF within a class); backpressure sheds and
// degrades from the bottom up, so kBestEffort absorbs overload before
// kNormal, and kHigh is touched last.
enum class Priority : int { kHigh = 0, kNormal = 1, kBestEffort = 2 };
constexpr int kPriorityClasses = 3;

inline const char* priority_name(Priority p) {
  switch (p) {
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      return "normal";
    case Priority::kBestEffort:
      return "best-effort";
  }
  return "?";
}

// Why a request was refused. kQuota and kQueueFull reject at admission;
// kDeadline sheds queued work whose deadline expired before a server
// could take it (shed *before* execution — never after paying for it).
enum class RejectReason : int { kNone = 0, kQuota, kQueueFull, kDeadline };

inline const char* reject_reason_name(RejectReason r) {
  switch (r) {
    case RejectReason::kNone:
      return "none";
    case RejectReason::kQuota:
      return "quota";
    case RejectReason::kQueueFull:
      return "queue-full";
    case RejectReason::kDeadline:
      return "deadline";
  }
  return "?";
}

// Per-tenant admission policy: a token bucket (quota_qps/burst) plus a
// bounded queue. quota_qps <= 0 disables the bucket (unlimited).
struct TenantConfig {
  std::string name;
  Priority priority = Priority::kNormal;
  double quota_qps = 0.0;  // token refill rate, requests/second
  double burst = 8.0;      // bucket capacity, tokens
  i64 queue_cap = 64;      // max requests queued for this tenant
};

constexpr i64 kNoDeadline = std::numeric_limits<i64>::max();

struct Request {
  i64 tenant = 0;  // index into the scheduler's tenant table
  i64 model = 0;   // index into the scheduler's registered models
  Fidelity tier = Fidelity::kFunctional;  // requested execution tier
  i64 arrival_us = 0;                     // virtual-clock arrival
  i64 deadline_us = kNoDeadline;          // absolute virtual deadline
  u64 input_seed = 0;  // the input cube is random_input(dims, input_seed)
  i64 client = -1;     // closed-loop client id, -1 for open-loop traffic
};

struct Response {
  i64 id = -1;  // dense request id, assigned in arrival order
  Request request;

  bool admitted = false;  // accepted AND executed
  RejectReason reject = RejectReason::kNone;

  Fidelity tier = Fidelity::kFunctional;  // tier actually served
  bool degraded = false;  // tier != request.tier (backpressure reroute)

  i64 enqueue_us = 0;     // admission time (== arrival)
  i64 dispatch_us = 0;    // batch left the queue
  i64 completion_us = 0;  // batch service finished
  i64 batch_size = 0;     // size of the dispatched batch it rode in
  i64 server = -1;        // which simulated server executed it

  // completion - arrival for admitted requests; reject_us - arrival for
  // sheds (0 for admission-time rejects, queue residency for kDeadline).
  i64 latency_us = 0;
  bool met_deadline = false;

  // FNV-1a over the output words when the scheduler executed for real
  // (SchedulerConfig::execute); 0 when execution was skipped. Byte-equal
  // outputs <=> equal digests, at either tier.
  u64 output_digest = 0;

  // One line, stable field order — the serialization the determinism
  // tests byte-compare across seeds/jobs.
  std::string to_string() const;
};

}  // namespace cbrain::serve
