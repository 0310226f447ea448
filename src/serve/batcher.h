#ifndef LIPFORMER_SERVE_BATCHER_H_
#define LIPFORMER_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/breaker.h"
#include "serve/session.h"

// Dynamic micro-batching for the inference session. Concurrent callers
// submit single windows; a work-conserving worker thread sleeps only
// while the queue is empty, then takes whatever is queued (up to
// max_batch_size) into one PredictBatch call, which spreads the batch's
// rows over the tensor thread pool. It never waits for stragglers:
// requests that arrive while a batch executes form the next batch.
//
// Semantics:
//  - Backpressure: Submit on a full queue fails fast with
//    Status::Unavailable (the returned future is immediately ready), or —
//    with SubmitMode::kBlock — waits for the worker to free a slot, so
//    file-driven producers apply flow control instead of bouncing. A
//    kBlock wait never outlives the request's own deadline: it turns
//    into DeadlineExceeded instead of enqueueing dead work.
//  - Deadlines propagate: a request whose deadline passes before its
//    batch is assembled completes with Status::DeadlineExceeded instead
//    of occupying batch slots, with a final shed immediately before the
//    model call so expired work never executes.
//  - Admission control: with a per-batch cost estimate (EWMA over
//    executed batches, seeded from the session's Open-time probe), a
//    request whose deadline cannot survive the estimated queue drain —
//    or, with max_queue_delay set, any request behind a deeper backlog
//    than that — is shed up front with Status::Overloaded plus a
//    retry-after hint, instead of timing out downstream.
//  - Degraded mode: consecutive failures (model errors or non-finite
//    forecasts, which are suppressed into typed Internal errors) trip a
//    per-model circuit breaker (serve/breaker.h) that sheds instantly
//    while open and recovers through half-open probes.
//  - Shutdown drains: pending accepted requests are still executed;
//    only new submissions are rejected.
//  - Determinism: results are bitwise identical to an unbatched
//    session->Predict of the same window, whatever batch the request
//    happened to share (see InferenceSession::PredictBatch).

namespace lipformer {
namespace serve {

struct BatcherOptions {
  // Largest batch per Forward.
  int64_t max_batch_size = 16;
  // Accepted-but-unexecuted request cap; Submit rejects beyond it.
  int64_t queue_capacity = 256;
  // Admission cap on the estimated queue drain (excluding the request's
  // own batch); zero disables it. Only enforced once a cost estimate
  // exists (executed batches or cost_hint_seconds).
  std::chrono::microseconds max_queue_delay{0};
  // Seeds the per-batch EWMA cost estimate (seconds); the registry fills
  // this from the session's Open-time timed probe. Zero means "no
  // estimate yet": deadline admission stays off until a batch executes.
  double cost_hint_seconds = 0;
  // Per-model circuit breaker; failure_threshold <= 0 disables it.
  BreakerOptions breaker;
};

// What Submit does when the bounded queue is at capacity.
enum class SubmitMode {
  kReject,  // fail fast with Unavailable (server-side backpressure)
  kBlock,   // wait for a slot; only Shutdown turns this into Unavailable
};

// Linear-interpolated percentile (p in [0, 100]) of samples sorted in
// ascending order; NaN when empty.
double SortedPercentile(const std::vector<double>& sorted, double p);

// Bounded sample reservoir behind the batcher's p50/p99/p99.9 latency.
// Keeps the most recent `capacity` samples in a ring. Not thread-safe:
// the owner guards it. Percentiles come from a sorted copy of samples()
// through SortedPercentile, so an owner that records under a lock copies
// under it and sorts after releasing it.
class LatencyRecorder {
 public:
  explicit LatencyRecorder(int64_t capacity = 1 << 16);

  void Record(double seconds);
  // The retained samples, in ring order (not sorted, not by age).
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;  // ring buffer, size <= capacity
  int64_t capacity_;
  int64_t next_ = 0;  // ring write cursor
};

struct BatcherStats {
  int64_t submitted = 0;       // accepted requests
  int64_t rejected_full = 0;   // bounced by backpressure
  int64_t expired = 0;         // deadline passed before execution
  int64_t shed_overload = 0;   // admission control (Status::Overloaded)
  int64_t completed = 0;       // answered (ok or model error)
  int64_t nonfinite_answers = 0;  // forecasts suppressed as Internal
  // Requests whose deadline expired inside the tensor-build window right
  // before the model call and were executed anyway. The final pre-
  // execution shed keeps this at 0 for any realistic deadline; the chaos
  // gate asserts it.
  int64_t executed_past_deadline = 0;
  int64_t batches = 0;            // batched Forward calls
  // Always 0: the worker never delays a batch, so there is no delay to
  // cut. Kept only because benchmark/src/serving.cc still reads it.
  int64_t brownout_batches = 0;
  int64_t queue_depth = 0;        // live queued requests right now
  double cost_ewma_seconds = 0;   // current per-batch cost estimate
  BreakerStats breaker;
  double p50_latency_seconds = 0;  // submit -> completion
  double p99_latency_seconds = 0;
  double p999_latency_seconds = 0;  // tail beyond p99: batching stalls
  // histogram[s] = number of executed batches of size s+1
  // (index 0 = size 1 ... index max_batch_size-1 = full batches).
  std::vector<int64_t> batch_size_histogram;
};

class Batcher {
 public:
  // `session` must outlive the batcher.
  Batcher(InferenceSession* session, BatcherOptions options);
  ~Batcher();  // Shutdown()

  Batcher(const Batcher&) = delete;
  Batcher& operator=(const Batcher&) = delete;

  // Enqueues one [input_len, channels] window. The future resolves to the
  // [pred_len, channels] prediction, or to Unavailable (queue full at
  // submit in kReject mode, breaker open, or shut down), Overloaded
  // (admission control shed; message carries a retry-after hint),
  // DeadlineExceeded (deadline hit before execution), Internal (the
  // model produced a non-finite forecast), or an InvalidArgument for a
  // wrong shape or a non-finite history value — rejected before admission
  // control and the breaker, so bad client input never counts as a model
  // failure. deadline: zero means none. In kBlock mode a full
  // queue blocks the caller until the worker frees a slot, the request's
  // deadline passes, or the batcher shuts down.
  std::future<Result<Tensor>> Submit(
      Tensor history,
      std::chrono::microseconds deadline = std::chrono::microseconds::zero(),
      SubmitMode mode = SubmitMode::kReject);

  // Stops accepting, executes everything already accepted, joins the
  // worker. Idempotent; called by the destructor.
  void Shutdown();

  BatcherStats Stats() const;

 private:
  struct Request {
    Tensor history;
    std::promise<Result<Tensor>> promise;
    std::chrono::steady_clock::time_point submitted_at;
    std::chrono::steady_clock::time_point deadline;  // epoch == none
    bool has_deadline = false;
    bool probe = false;  // admitted as a half-open breaker probe
  };

  void WorkerLoop();
  // Pops up to max_batch_size requests (expiring stale ones) and answers
  // them with one PredictBatch.
  void RunOneBatch(std::unique_lock<std::mutex>* lock);

  // Queued requests whose deadline has not passed at `now` — the ones
  // that can actually occupy batch slots. Requires mu_ held.
  int64_t LiveQueueCountLocked(std::chrono::steady_clock::time_point now)
      const;
  // Removes expired requests from the queue and counts them; requires
  // mu_ held. The caller must fail the returned promises with
  // DeadlineExceeded after releasing mu_.
  std::vector<Request> SweepExpiredLocked(
      std::chrono::steady_clock::time_point now);

  InferenceSession* session_;
  BatcherOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  // Signalled when the worker pops requests (slots freed) or on
  // shutdown; kBlock submitters wait on it.
  std::condition_variable space_cv_;
  std::deque<Request> queue_;
  bool shutdown_ = false;

  // Counters, guarded by mu_. Stats() copies them and fills the fields
  // kept elsewhere: queue_depth, breaker and the latency percentiles.
  // stats_.cost_ewma_seconds is also the admission estimate (0 = none
  // yet).
  BatcherStats stats_;
  CircuitBreaker breaker_;
  LatencyRecorder latency_;

  std::mutex join_mu_;  // serializes concurrent Shutdown joins
  std::thread worker_;
};

}  // namespace serve
}  // namespace lipformer

#endif  // LIPFORMER_SERVE_BATCHER_H_
