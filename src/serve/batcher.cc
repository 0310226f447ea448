#include "serve/batcher.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

namespace lipformer {
namespace serve {

namespace {
using Clock = std::chrono::steady_clock;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

int64_t CeilToMs(double seconds) {
  return static_cast<int64_t>(std::ceil(std::max(0.0, seconds) * 1000.0));
}

// Smoothing factor of the per-batch cost EWMA: heavy enough on the new
// sample that a straggler fault (slow-infer) inflates the estimate — and
// thus the shed rate — within a few batches, light enough that one odd
// batch does not swing admission.
constexpr double kCostAlpha = 0.3;

bool RowAllFinite(const float* row, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    if (!std::isfinite(row[i])) return false;
  }
  return true;
}
}  // namespace

Batcher::Batcher(InferenceSession* session, BatcherOptions options)
    : session_(session), options_(options), breaker_(options.breaker) {
  LIPF_CHECK(session != nullptr);
  LIPF_CHECK_GT(options_.max_batch_size, 0);
  LIPF_CHECK_GT(options_.queue_capacity, 0);
  cost_ewma_ = std::max(0.0, options_.cost_hint_seconds);
  batch_size_histogram_.assign(
      static_cast<size_t>(options_.max_batch_size), 0);
  worker_ = std::thread([this] { WorkerLoop(); });
}

Batcher::~Batcher() { Shutdown(); }

std::future<Result<Tensor>> Batcher::Submit(
    Tensor history, std::chrono::microseconds deadline, SubmitMode mode) {
  std::promise<Result<Tensor>> rejected;
  std::future<Result<Tensor>> rejected_future = rejected.get_future();
  if (history.dim() != 2 || history.size(0) != session_->input_len() ||
      history.size(1) != session_->channels()) {
    rejected.set_value(Status::InvalidArgument(
        "Submit expects [" + std::to_string(session_->input_len()) + ", " +
        std::to_string(session_->channels()) + "], got " +
        ShapeToString(history.shape())));
    return rejected_future;
  }
  if (!RowAllFinite(history.data(), history.numel())) {
    rejected.set_value(Status::InvalidArgument(
        "Submit got a non-finite history value (NaN or inf)"));
    return rejected_future;
  }

  Request request;
  request.history = std::move(history);
  request.submitted_at = Clock::now();
  if (deadline.count() > 0) {
    request.has_deadline = true;
    request.deadline = request.submitted_at + deadline;
  }
  std::future<Result<Tensor>> future = request.promise.get_future();

  std::vector<Request> swept;
  bool accepted = false;
  bool shut_down = false;
  bool dead_on_arrival = false;
  bool breaker_open = false;
  bool overloaded = false;
  int64_t retry_after_ms = 0;
  {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (shutdown_) {
        shut_down = true;
        break;
      }
      const auto now = Clock::now();
      // Dead on arrival (or expired while blocked below): never enqueue
      // work the worker could only discard.
      if (request.has_deadline && now >= request.deadline) {
        ++expired_;
        dead_on_arrival = true;
        break;
      }
      if (static_cast<int64_t>(queue_.size()) >= options_.queue_capacity) {
        // A queue pinned at capacity by already-expired requests must not
        // bounce fresh work: those entries can never occupy batch slots
        // (RunOneBatch discards them), so evict them here instead of
        // waiting for the worker to reach them.
        std::vector<Request> stale = SweepExpiredLocked(now);
        for (Request& request_stale : stale) {
          swept.push_back(std::move(request_stale));
        }
      }
      if (static_cast<int64_t>(queue_.size()) >= options_.queue_capacity) {
        if (mode == SubmitMode::kReject) {
          ++rejected_full_;
          break;
        }
        // kBlock: flow control. Wait for the worker to pop requests (or
        // for shutdown), but never past the request's own deadline —
        // blocking until the slot frees and then enqueueing dead work
        // would hand the worker a request it can only discard.
        if (request.has_deadline) {
          space_cv_.wait_until(lock, request.deadline);
        } else {
          space_cv_.wait(lock);
        }
        continue;  // re-evaluate shutdown/deadline/capacity from the top
      }
      // A slot is available; admission checks decide whether taking it
      // is useful. Breaker first: a tripped model sheds instantly.
      switch (breaker_.Admit(now)) {
        case CircuitBreaker::Admission::kReject: {
          breaker_open = true;
          retry_after_ms = breaker_.Stats(now).retry_after.count();
          break;
        }
        case CircuitBreaker::Admission::kAdmitProbe:
          request.probe = true;
          break;
        case CircuitBreaker::Admission::kAdmit:
          break;
      }
      if (breaker_open) break;
      // EWMA admission: shed when the estimated drain of the current
      // backlog (plus this request's own batch) cannot meet the deadline,
      // or exceeds the configured queue-delay cap. Probes bypass this —
      // they exist to reach the model. With no estimate yet (cost_ewma_
      // == 0) deadline policing falls back to expiry sweeps.
      if (!request.probe && cost_ewma_ > 0) {
        const int64_t live = LiveQueueCountLocked(now);
        const int64_t batches_ahead =
            (live + options_.max_batch_size - 1) / options_.max_batch_size;
        const double wait_estimate = batches_ahead * cost_ewma_;
        const double total_estimate = wait_estimate + cost_ewma_;
        const bool misses_deadline =
            request.has_deadline &&
            now + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(total_estimate)) >=
                request.deadline;
        const bool over_delay_cap =
            options_.max_queue_delay.count() > 0 &&
            wait_estimate > Seconds(options_.max_queue_delay);
        if (misses_deadline || over_delay_cap) {
          ++shed_overload_;
          overloaded = true;
          retry_after_ms = CeilToMs(wait_estimate);
          break;
        }
      }
      ++submitted_;
      queue_.push_back(std::move(request));
      accepted = true;
      break;
    }
  }
  // Fulfill outside mu_ so a caller blocked on one of these futures never
  // contends with the worker for the queue lock on wake-up.
  for (Request& stale : swept) {
    stale.promise.set_value(Status::DeadlineExceeded(
        "request expired before its batch was executed"));
  }
  if (!swept.empty()) {
    // The sweep freed slots; one was (maybe) consumed above, any others
    // can admit blocked submitters.
    space_cv_.notify_all();
  }
  if (!accepted) {
    if (shut_down) {
      rejected.set_value(Status::Unavailable("batcher is shut down"));
    } else if (dead_on_arrival) {
      rejected.set_value(Status::DeadlineExceeded(
          "deadline expired before the request could be enqueued"));
    } else if (breaker_open) {
      rejected.set_value(Status::Unavailable(
          "circuit breaker open for this model; retry after " +
          std::to_string(std::max<int64_t>(retry_after_ms, 1)) + "ms"));
    } else if (overloaded) {
      rejected.set_value(Status::Overloaded(
          "overloaded: estimated queue drain " +
          std::to_string(retry_after_ms) +
          "ms exceeds what this request can wait; retry after " +
          std::to_string(std::max<int64_t>(retry_after_ms, 1)) + "ms"));
    } else {
      rejected.set_value(Status::Unavailable(
          "serving queue full (" + std::to_string(options_.queue_capacity) +
          " pending requests); retry later"));
    }
    return rejected_future;
  }
  cv_.notify_all();
  return future;
}

int64_t Batcher::LiveQueueCountLocked(Clock::time_point now) const {
  int64_t live = 0;
  for (const Request& request : queue_) {
    if (!request.has_deadline || now < request.deadline) ++live;
  }
  return live;
}

std::vector<Batcher::Request> Batcher::SweepExpiredLocked(
    Clock::time_point now) {
  std::vector<Request> swept;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->has_deadline && now >= it->deadline) {
      if (it->probe) breaker_.AbandonProbe();
      swept.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  expired_ += static_cast<int64_t>(swept.size());
  return swept;
}

void Batcher::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  space_cv_.notify_all();  // unblock kBlock submitters with Unavailable
  // Separate mutex so concurrent Shutdown calls serialize on the join
  // without holding mu_ (the worker needs it to drain).
  std::lock_guard<std::mutex> join_lock(join_mu_);
  if (worker_.joinable()) worker_.join();
}

void Batcher::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Work-conserving: sleep only while there is nothing to run. Requests
    // that arrive while a batch executes queue up and form the next one,
    // so waiting for stragglers would only add latency.
    cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shut down and drained
    RunOneBatch(&lock);
  }
}

void Batcher::RunOneBatch(std::unique_lock<std::mutex>* lock) {
  const auto now = Clock::now();
  std::vector<Request> batch;
  std::vector<Request> expired;
  while (!queue_.empty() &&
         static_cast<int64_t>(batch.size()) < options_.max_batch_size) {
    Request request = std::move(queue_.front());
    queue_.pop_front();
    if (request.has_deadline && now >= request.deadline) {
      ++expired_;
      if (request.probe) breaker_.AbandonProbe();
      expired.push_back(std::move(request));
    } else {
      batch.push_back(std::move(request));
    }
  }
  lock->unlock();

  // Every popped request (executed or expired) freed a queue slot.
  if (!batch.empty() || !expired.empty()) space_cv_.notify_all();

  for (Request& request : expired) {
    request.promise.set_value(Status::DeadlineExceeded(
        "request expired before its batch was executed"));
  }

  if (batch.empty()) {
    lock->lock();
    return;
  }

  int64_t k = static_cast<int64_t>(batch.size());
  const int64_t t = session_->input_len();
  const int64_t c = session_->channels();
  Tensor histories = Tensor::Empty({k, t, c});
  for (int64_t i = 0; i < k; ++i) {
    std::memcpy(histories.data() + i * t * c, batch[i].history.data(),
                static_cast<size_t>(t * c) * sizeof(float));
  }

  // Final shed AT execution start: deadlines that passed since the
  // batch was popped are caught here, compacting the already built batch
  // (order preserved), so the decision to execute and the execution
  // itself share one timestamp — no request ever enters the model
  // expired. Stats are committed before fulfillment, as everywhere.
  const auto exec_start = Clock::now();
  std::vector<Request> late;
  int64_t kept = 0;
  for (int64_t i = 0; i < k; ++i) {
    Request& request = batch[static_cast<size_t>(i)];
    if (request.has_deadline && exec_start >= request.deadline) {
      late.push_back(std::move(request));
      continue;
    }
    if (kept != i) {
      std::memcpy(histories.data() + kept * t * c,
                  histories.data() + i * t * c,
                  static_cast<size_t>(t * c) * sizeof(float));
      batch[static_cast<size_t>(kept)] = std::move(request);
    }
    ++kept;
  }
  if (!late.empty()) {
    batch.erase(batch.begin() + kept, batch.end());
    lock->lock();
    expired_ += static_cast<int64_t>(late.size());
    for (const Request& request : late) {
      if (request.probe) breaker_.AbandonProbe();
    }
    lock->unlock();
    for (Request& request : late) {
      request.promise.set_value(Status::DeadlineExceeded(
          "request expired before its batch was executed"));
    }
    if (batch.empty()) {
      lock->lock();
      return;
    }
    k = kept;
    Tensor trimmed = Tensor::Empty({k, t, c});
    std::memcpy(trimmed.data(), histories.data(),
                static_cast<size_t>(k * t * c) * sizeof(float));
    histories = std::move(trimmed);
  }

  // Tripwire for the invariant above (the chaos gate asserts it stays
  // 0): rows entering the model already expired. Structurally zero after
  // the exec_start shed; counts only if that enforcement regresses.
  int64_t past_deadline = 0;
  for (const Request& request : batch) {
    if (request.has_deadline && exec_start >= request.deadline) {
      ++past_deadline;
    }
  }

  Result<Tensor> predictions = session_->PredictBatch(histories);
  const int64_t l = session_->pred_len();
  const auto done = Clock::now();
  const double batch_seconds = Seconds(done - exec_start);

  // A non-finite forecast must surface as a typed error, never as silent
  // garbage to the client; each bad row also counts as a model failure
  // for the breaker.
  const bool batch_failed = !predictions.ok();
  std::vector<bool> row_finite(static_cast<size_t>(k), true);
  int64_t nonfinite = 0;
  if (!batch_failed) {
    const float* data = predictions.value().data();
    for (int64_t i = 0; i < k; ++i) {
      if (!RowAllFinite(data + i * l * c, l * c)) {
        row_finite[static_cast<size_t>(i)] = false;
        ++nonfinite;
      }
    }
  }

  // Commit the stats BEFORE fulfilling any promise: a caller whose future
  // resolved must find itself counted in Stats(). (Latency is measured to
  // batch completion, not to promise delivery.)
  lock->lock();
  ++batches_;
  ++batch_size_histogram_[static_cast<size_t>(k) - 1];
  completed_ += k;
  nonfinite_answers_ += nonfinite;
  executed_past_deadline_ += past_deadline;
  cost_ewma_ = cost_ewma_ <= 0
                   ? batch_seconds
                   : (1.0 - kCostAlpha) * cost_ewma_ + kCostAlpha * batch_seconds;
  for (int64_t i = 0; i < k; ++i) {
    const Request& request = batch[static_cast<size_t>(i)];
    latency_.Record(Seconds(done - request.submitted_at));
    if (!batch_failed && row_finite[static_cast<size_t>(i)]) {
      breaker_.OnSuccess(request.probe);
    } else {
      breaker_.OnFailure(request.probe, done);
    }
  }
  lock->unlock();

  for (int64_t i = 0; i < k; ++i) {
    if (batch_failed) {
      batch[static_cast<size_t>(i)].promise.set_value(predictions.status());
      continue;
    }
    if (!row_finite[static_cast<size_t>(i)]) {
      batch[static_cast<size_t>(i)].promise.set_value(Status::Internal(
          "model produced a non-finite forecast; answer suppressed"));
      continue;
    }
    Tensor row = Tensor::Empty({l, c});
    std::memcpy(row.data(), predictions.value().data() + i * l * c,
                static_cast<size_t>(l * c) * sizeof(float));
    batch[static_cast<size_t>(i)].promise.set_value(std::move(row));
  }

  lock->lock();
}

BatcherStats Batcher::Stats() const {
  BatcherStats stats;
  std::vector<double> latencies;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = Clock::now();
    stats.submitted = submitted_;
    stats.rejected_full = rejected_full_;
    stats.expired = expired_;
    stats.shed_overload = shed_overload_;
    stats.completed = completed_;
    stats.nonfinite_answers = nonfinite_answers_;
    stats.executed_past_deadline = executed_past_deadline_;
    stats.batches = batches_;
    stats.queue_depth = LiveQueueCountLocked(now);
    stats.cost_ewma_seconds = cost_ewma_;
    stats.breaker = breaker_.Stats(now);
    stats.batch_size_histogram = batch_size_histogram_;
    latencies = latency_.samples();
  }
  // Sort outside mu_: a full ring holds 65,536 samples, and Submit and
  // the worker must not wait behind the sort.
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    stats.p50_latency_seconds = SortedPercentile(latencies, 50.0);
    stats.p99_latency_seconds = SortedPercentile(latencies, 99.0);
    stats.p999_latency_seconds = SortedPercentile(latencies, 99.9);
  }
  return stats;
}

}  // namespace serve
}  // namespace lipformer
