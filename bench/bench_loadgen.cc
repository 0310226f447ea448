// Chaos driver for the serving layer, run by scripts/check_chaos.sh (the
// `chaos` ctest). One paper-scale LiPFormer (Weather-like 336->96, 21
// channels) is served through serve::ModelRegistry under open-loop
// Poisson load at 1.5x this box's calibrated capacity, with per-request
// deadlines and a retrying client: kOverloaded sheds are retried after a
// backoff (bounded attempts, honoring the original deadline). Three
// phases, A-B-A:
//
//   1. no-fault: the overload baseline;
//   2. faulted: the same load with slow-infer stragglers, then a window
//      of poisoned outputs, injected mid-run (common/fault_injection.h);
//   3. no-fault again, once the breaker has recovered.
//
// Every ok answer is memcmp-checked against a serial session's prediction
// for the same window and scanned for non-finite values. Exits 1 unless:
// every phase answers requests; no delivered answer is torn or
// non-finite; no request executes past its deadline; neither no-fault
// phase trips a breaker or produces a non-finite forecast; the poisoned
// forecasts surface as typed Internal errors and trip the circuit
// breaker, which recovers to closed via half-open probes once the faults
// clear; and faulted goodput is at least --chaos-goodput-floor-pct
// percent of the mean no-fault goodput. Bracketing the faulted phase with
// two baselines keeps a drift in host speed over the run (a shared VM
// speeding up or slowing down) from reading as a fault-handling cost.
// Exits 2 on an unknown or malformed flag.
//
//   bench_loadgen [--chaos-duration-ms=N] [--chaos-goodput-floor-pct=N]
//
// Capacity, deadlines and the fault timeline scale with the measured
// speed of this box, so the same checks hold on sanitizer builds. The
// rates and latencies printed here are diagnostics; serving performance
// is measured by benchmark/ (its `overload` workload measures capacity).

#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/interrupt.h"
#include "common/parse.h"
#include "common/random.h"
#include "data/scaler.h"
#include "models/factory.h"
#include "serve/batcher.h"
#include "serve/breaker.h"
#include "serve/registry.h"
#include "serve/session.h"

namespace lipformer {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int64_t kMaxBatch = 16;
constexpr int kWindows = 8;
constexpr int kMaxAttempts = 3;
constexpr int kSlowInferMs = 30;

struct Flags {
  int64_t duration_ms = 4000;  // per phase
  int64_t goodput_floor_pct = 85;
};

// Fills `flags` from argv; false (after printing why) on an unknown flag
// or a malformed or out-of-range value.
bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value =
        eq == std::string::npos ? std::string() : arg.substr(eq + 1);
    bool ok = eq != std::string::npos;
    if (key == "--chaos-duration-ms") {
      ok = ok && ParseInt64(value, &flags->duration_ms) &&
           flags->duration_ms >= 1;
    } else if (key == "--chaos-goodput-floor-pct") {
      ok = ok && ParseInt64(value, &flags->goodput_floor_pct) &&
           flags->goodput_floor_pct >= 0 && flags->goodput_floor_pct <= 100;
    } else {
      std::fprintf(stderr, "bench_loadgen: unknown flag '%s'\n", arg.c_str());
      return false;
    }
    if (!ok) {
      std::fprintf(stderr, "bench_loadgen: malformed flag '%s'\n",
                   arg.c_str());
      return false;
    }
  }
  return true;
}

// A fresh directory under the system temp dir, removed with its contents
// when the guard goes out of scope. path() is empty if creation failed.
class TempDir {
 public:
  TempDir() {
    std::error_code ec;
    const std::filesystem::path base =
        std::filesystem::temp_directory_path(ec);
    if (ec) return;
    std::string pattern = (base / "lipformer_loadgen.XXXXXX").string();
    if (mkdtemp(pattern.data()) != nullptr) path_ = pattern;
  }
  ~TempDir() {
    std::error_code ec;
    if (!path_.empty()) std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.numel() == b.numel() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool AllFinite(const Tensor& t) {
  const float* p = t.data();
  for (int64_t i = 0; i < t.numel(); ++i) {
    if (!std::isfinite(p[i])) return false;
  }
  return true;
}

// One client request across its attempts.
struct Request {
  Clock::time_point submitted;    // first submit; latency anchor
  Clock::time_point deadline_at;  // absolute
  int window = 0;
  int attempt = 1;
};

struct InFlight {
  Request request;
  std::future<Result<Tensor>> future;
};

struct Retry {
  Request request;
  Clock::time_point at;
};

struct PhaseResult {
  double target_rps = 0;
  double deadline_ms = 0;
  int64_t offered = 0;
  int64_t completed = 0;
  int64_t failed = 0;       // terminal failures (all codes)
  int64_t shed = 0;         // kOverloaded (admission control)
  int64_t expired = 0;      // kDeadlineExceeded
  int64_t unavailable = 0;  // kUnavailable (queue full / breaker open)
  int64_t internal = 0;     // kInternal (non-finite forecast suppressed)
  int64_t retries = 0;
  int64_t nonfinite = 0;    // ok answers carrying non-finite values
  int64_t mismatched = 0;   // ok answers unequal to the serial reference
  double goodput_rps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
};

// One open-loop phase against one model. The caller's thread submits on
// a Poisson schedule; a waiter thread resolves answers in submit order
// (the batcher completes a model's futures in that order, so get()
// returns at each request's completion time); a retry thread resubmits
// kOverloaded sheds after `backoff_s` while the original deadline still
// has room.
class Phase {
 public:
  Phase(serve::ModelRegistry* registry, std::string model,
        const std::vector<Tensor>& windows,
        const std::vector<Tensor>& expected, double deadline_s,
        double backoff_s)
      : registry_(registry),
        model_(std::move(model)),
        windows_(windows),
        expected_(expected),
        deadline_s_(deadline_s),
        backoff_s_(backoff_s) {}

  PhaseResult Run(double target_rps, double duration_s, uint64_t seed) {
    // Pre-draw the arrival schedule so the submit loop does no RNG work:
    // exponential interarrivals == Poisson process.
    Rng rng(seed);
    std::vector<std::pair<double, int>> schedule;  // (at_s, window)
    for (double t = 0;;) {
      t += -std::log(1.0 - rng.Uniform()) / target_rps;
      if (t >= duration_s) break;
      schedule.emplace_back(t, static_cast<int>(rng.UniformInt(kWindows)));
    }

    std::thread waiter(&Phase::WaitLoop, this);
    std::thread retrier(&Phase::RetryLoop, this);
    const Clock::duration deadline =
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(deadline_s_));
    const Clock::time_point start = Clock::now();
    for (const auto& [at, window] : schedule) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(at)));
      Request request;
      request.submitted = Clock::now();
      request.deadline_at = request.submitted + deadline;
      request.window = window;
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++outstanding_;
      }
      Submit(request, request.submitted);
    }
    // A retried request stays outstanding across attempts, so this waits
    // until every request resolved terminally.
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return outstanding_ == 0; });
      closed_ = true;
    }
    cv_.notify_all();
    retrier.join();
    waiter.join();

    result_.target_rps = target_rps;
    result_.deadline_ms = deadline_s_ * 1e3;
    result_.offered = static_cast<int64_t>(schedule.size());
    const double elapsed =
        std::chrono::duration<double>(last_completion_ - start).count();
    result_.goodput_rps = elapsed > 0 ? result_.completed / elapsed : 0;
    std::vector<double> latencies = latencies_.samples();
    if (!latencies.empty()) {
      std::sort(latencies.begin(), latencies.end());
      result_.p50_us = serve::SortedPercentile(latencies, 50.0) * 1e6;
      result_.p99_us = serve::SortedPercentile(latencies, 99.0) * 1e6;
      result_.p999_us = serve::SortedPercentile(latencies, 99.9) * 1e6;
    }
    return result_;
  }

 private:
  // Submits one attempt with whatever deadline budget remains at `now`
  // (kReject: in an open loop a full queue is a failed request, not a
  // stalled client) and hands it to the waiter.
  void Submit(const Request& request, Clock::time_point now) {
    InFlight in_flight{request, {}};
    if (now >= request.deadline_at) {
      // The backoff ate the rest of the budget; resolve client-side.
      std::promise<Result<Tensor>> expired;
      expired.set_value(
          Status::DeadlineExceeded("retry backoff exhausted the deadline"));
      in_flight.future = expired.get_future();
    } else {
      in_flight.future = registry_->Submit(
          model_, windows_[static_cast<size_t>(request.window)],
          std::chrono::duration_cast<std::chrono::microseconds>(
              request.deadline_at - now),
          serve::SubmitMode::kReject);
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      pending_.push_back(std::move(in_flight));
    }
    cv_.notify_all();
  }

  void WaitLoop() {
    for (;;) {
      InFlight in_flight;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !pending_.empty(); });
        if (pending_.empty()) return;
        in_flight = std::move(pending_.front());
        pending_.pop_front();
      }
      Result<Tensor> result = in_flight.future.get();
      const Clock::time_point done = Clock::now();
      const Request& request = in_flight.request;
      if (!result.ok()) {
        const StatusCode code = result.status().code();
        const Clock::time_point retry_at =
            done + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(backoff_s_));
        if (code == StatusCode::kOverloaded &&
            request.attempt < kMaxAttempts &&
            retry_at < request.deadline_at) {
          Retry retry{request, retry_at};
          ++retry.request.attempt;
          {
            std::lock_guard<std::mutex> lock(mu_);
            retries_.push_back(retry);  // stays outstanding
          }
          cv_.notify_all();
          continue;
        }
        ++result_.failed;
        if (code == StatusCode::kOverloaded) ++result_.shed;
        if (code == StatusCode::kDeadlineExceeded) ++result_.expired;
        if (code == StatusCode::kUnavailable) ++result_.unavailable;
        if (code == StatusCode::kInternal) ++result_.internal;
      } else {
        ++result_.completed;
        last_completion_ = done;
        latencies_.Record(
            std::chrono::duration<double>(done - request.submitted).count());
        // A poisoned forecast must have been suppressed server-side.
        if (!AllFinite(result.value())) ++result_.nonfinite;
        if (!BitwiseEqual(result.value(),
                          expected_[static_cast<size_t>(request.window)])) {
          ++result_.mismatched;
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        --outstanding_;
      }
      cv_.notify_all();
    }
  }

  void RetryLoop() {
    for (;;) {
      Retry retry;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !retries_.empty(); });
        if (retries_.empty()) return;
        retry = retries_.front();
        retries_.pop_front();
        ++result_.retries;
      }
      std::this_thread::sleep_until(retry.at);
      Submit(retry.request, Clock::now());
    }
  }

  serve::ModelRegistry* const registry_;
  const std::string model_;
  const std::vector<Tensor>& windows_;
  const std::vector<Tensor>& expected_;
  const double deadline_s_;
  const double backoff_s_;

  // Guards the queues, the outstanding count and closed_; one condition
  // variable serves the waiter, the retrier and the drain in Run.
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<InFlight> pending_;
  std::deque<Retry> retries_;
  int64_t outstanding_ = 0;
  bool closed_ = false;

  // Written by the waiter thread (result_.retries by the retrier, under
  // mu_) and read by Run after both joined.
  PhaseResult result_;
  serve::LatencyRecorder latencies_;
  Clock::time_point last_completion_{};
};

// Saves the served bundle: LiPFormer, hidden 64, fixed weights.
bool SaveBundle(const std::string& path, const ForecasterDims& dims) {
  ModelOptions options;
  options.hidden_dim = 64;
  options.seed = 7;
  std::unique_ptr<Forecaster> model = CreateModel("lipformer", dims, options);
  Rng rng(1007);
  StandardScaler scaler;
  scaler.Fit(Tensor::Randn({256, dims.channels}, rng));
  Status st =
      serve::SaveModelBundle(path, "lipformer", options, *model, scaler);
  if (!st.ok()) {
    std::fprintf(stderr, "bundle save failed: %s\n", st.ToString().c_str());
    return false;
  }
  return true;
}

// Reference predictions for each window from a fresh serial session of
// `path`. The registry's batched answers must be bitwise equal to these
// (InferenceSession's batched==serial determinism contract).
bool SerialReference(const std::string& path,
                     const std::vector<Tensor>& windows,
                     std::vector<Tensor>* out) {
  auto session = serve::InferenceSession::Open(path);
  if (!session.ok()) {
    std::fprintf(stderr, "reference open failed: %s\n",
                 session.status().ToString().c_str());
    return false;
  }
  for (const Tensor& window : windows) {
    auto prediction = session.value()->Predict(window);
    if (!prediction.ok()) {
      std::fprintf(stderr, "reference predict failed: %s\n",
                   prediction.status().ToString().c_str());
      return false;
    }
    out->push_back(prediction.value());
  }
  return true;
}

// `rows` copies of the windows, cycled, as one [rows, input_len, channels]
// batch.
Tensor BatchOf(const std::vector<Tensor>& windows, int64_t rows) {
  const Tensor& first = windows[0];
  Tensor batch = Tensor::Empty({rows, first.size(0), first.size(1)});
  for (int64_t row = 0; row < rows; ++row) {
    std::memcpy(batch.data() + row * first.numel(),
                windows[static_cast<size_t>(row) % windows.size()].data(),
                static_cast<size_t>(first.numel()) * sizeof(float));
  }
  return batch;
}

void PrintPhase(const char* tag, const PhaseResult& p) {
  std::fprintf(stderr,
               "%s: target=%.1f rps deadline=%.0fms: offered=%lld "
               "completed=%lld failed=%lld shed=%lld expired=%lld "
               "unavailable=%lld internal=%lld retries=%lld nonfinite=%lld "
               "mismatched=%lld goodput=%.1f rps p50=%.0fus p99=%.0fus "
               "p999=%.0fus\n",
               tag, p.target_rps, p.deadline_ms,
               static_cast<long long>(p.offered),
               static_cast<long long>(p.completed),
               static_cast<long long>(p.failed),
               static_cast<long long>(p.shed),
               static_cast<long long>(p.expired),
               static_cast<long long>(p.unavailable),
               static_cast<long long>(p.internal),
               static_cast<long long>(p.retries),
               static_cast<long long>(p.nonfinite),
               static_cast<long long>(p.mismatched), p.goodput_rps, p.p50_us,
               p.p99_us, p.p999_us);
}

// Closed-loop rows per second of `session` over 0.3 s: Predict(input)
// when rows == 1, else PredictBatch(input) of `rows` rows. 0 when a
// prediction fails.
double MeasureRps(serve::InferenceSession* session, const Tensor& input,
                  int64_t rows) {
  const Clock::time_point start = Clock::now();
  int64_t calls = 0;
  double elapsed = 0;
  while (elapsed < 0.3) {
    const bool ok = rows == 1 ? session->Predict(input).ok()
                              : session->PredictBatch(input).ok();
    if (!ok) return 0;
    ++calls;
    elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  }
  return static_cast<double>(calls * rows) / elapsed;
}

int Run(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  // The loadgen streams progress to a pipe check scripts may close early;
  // dying on SIGPIPE mid-run would read as a chaos failure.
  IgnoreSigPipe();
  fault::Disarm();  // the faulted phase arms its own schedule; start clean

  TempDir dir;
  if (dir.path().empty()) {
    std::fprintf(stderr, "cannot create a temporary directory\n");
    return 1;
  }
  ForecasterDims dims;
  dims.input_len = 336;
  dims.pred_len = 96;
  dims.channels = 21;
  const std::string name = "m0";
  const std::string path = dir.path() + "/m0.ckpt";
  if (!SaveBundle(path, dims)) return 1;

  Rng rng(11);
  std::vector<Tensor> windows;
  for (int i = 0; i < kWindows; ++i) {
    windows.push_back(Tensor::Randn({dims.input_len, dims.channels}, rng));
  }
  std::vector<Tensor> expected;
  if (!SerialReference(path, windows, &expected)) return 1;

  serve::RegistryOptions registry_options;
  registry_options.batcher.max_batch_size = kMaxBatch;
  // Generous: admission control (not queue overflow) is the intended
  // shedding mechanism; a transient scheduler stall on a shared box must
  // not turn into spurious rejections.
  registry_options.batcher.queue_capacity = 4096;
  // A low trip threshold + short cooldown keep the breaker's full
  // trip -> half-open -> closed cycle inside the faulted phase.
  registry_options.batcher.breaker.failure_threshold = 4;
  registry_options.batcher.breaker.cooldown = std::chrono::milliseconds(150);
  registry_options.batcher.breaker.half_open_successes = 2;
  serve::ModelRegistry registry(registry_options);
  Status loaded = registry.Load(name, path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }

  serve::InferenceSession* session = registry.Find(name)->session();

  // Calibrate this box: the overload must exceed what batching can
  // serve, not just the serial rate (on a multicore box the batch
  // dimension parallelizes, so 1.5x serial may not be overload at all).
  const double base_rps = MeasureRps(session, windows[0], 1);
  const double batch_rps =
      MeasureRps(session, BatchOf(windows, kMaxBatch), kMaxBatch);
  if (base_rps <= 0 || batch_rps <= 0) {
    std::fprintf(stderr, "calibration predict failed\n");
    return 1;
  }
  const double target_rps = 1.5 * std::max(base_rps, batch_rps);
  std::fprintf(stderr,
               "calibrated capacity: %.1f rps serial, %.1f rps batched\n",
               base_rps, batch_rps);

  // Deadlines scale with this box (the floor matters on sanitizer builds,
  // where a forward costs 10-20x more).
  const double deadline_s = std::max(0.25, 40.0 / base_rps);
  const double backoff_s = std::max(0.01, deadline_s / 8);
  const double duration_s = flags.duration_ms / 1000.0;

  // Phase 1 — no-fault overload baseline.
  PhaseResult nofault = Phase(&registry, name, windows, expected, deadline_s,
                              backoff_s)
                            .Run(target_rps, duration_s, /*seed=*/777);
  PrintPhase("chaos-nofault", nofault);
  const serve::BatcherStats after_nofault = registry.Models()[0].batcher;

  // Phase 2 — the same load with a fault timeline injected mid-run:
  // slow-infer stragglers early, then a poisoned-output window (which
  // must trip the breaker), then a clean tail for half-open recovery.
  // The windows are wall-clock relative so the schedule adapts to however
  // many batches this box manages.
  std::thread fault_timeline([duration_s] {
    fault::Arm("slow_infer_ms=" + std::to_string(kSlowInferMs) +
               ",slow_infer_at=1,slow_infer_count=4");
    std::this_thread::sleep_for(
        std::chrono::duration<double>(0.30 * duration_s));
    // Re-arming resets the serving call counters, so poison hits the
    // next 6 batched forwards from this instant; slow_infer_ms=0 clears
    // the straggler fault.
    fault::Arm("slow_infer_ms=0,poison_output_at=1,poison_output_count=6");
    std::this_thread::sleep_for(
        std::chrono::duration<double>(0.30 * duration_s));
    fault::Disarm();
  });
  PhaseResult faulted = Phase(&registry, name, windows, expected, deadline_s,
                              backoff_s)
                            .Run(target_rps, duration_s, /*seed=*/778);
  fault_timeline.join();
  fault::Disarm();
  PrintPhase("chaos-faulted", faulted);

  // Recovery: the breaker must come back (half-open probes) once the
  // faults clear; bounded wait.
  bool recovered = false;
  const Clock::time_point recovery_start = Clock::now();
  while (std::chrono::duration<double>(Clock::now() - recovery_start)
             .count() < 5.0) {
    auto answer =
        registry
            .Submit(name, windows[0],
                    std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::duration<double>(deadline_s)))
            .get();
    if (answer.ok()) {
      recovered = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const serve::BatcherStats final_stats = registry.Models()[0].batcher;
  const int64_t nofault_trips = after_nofault.breaker.trips;
  const int64_t trips = final_stats.breaker.trips - nofault_trips;

  // Phase 3 — the no-fault baseline again, after recovery.
  PhaseResult nofault_after = Phase(&registry, name, windows, expected,
                                    deadline_s, backoff_s)
                                  .Run(target_rps, duration_s, /*seed=*/779);
  PrintPhase("chaos-nofault-after", nofault_after);
  const serve::BatcherStats after_all = registry.Models()[0].batcher;
  const int64_t nofault_after_trips =
      after_all.breaker.trips - final_stats.breaker.trips;
  const double baseline_rps =
      (nofault.goodput_rps + nofault_after.goodput_rps) / 2;

  std::fprintf(
      stderr,
      "chaos: breaker trips=%lld (no-fault %lld, %lld) probes=%lld "
      "state=%s recovered=%d executed_past_deadline=%lld "
      "server_nonfinite=%lld goodput=%.1f/%.1f rps (no-fault %.1f, %.1f; "
      "floor %lld%%)\n",
      static_cast<long long>(trips), static_cast<long long>(nofault_trips),
      static_cast<long long>(nofault_after_trips),
      static_cast<long long>(final_stats.breaker.probes),
      serve::BreakerStateName(final_stats.breaker.state), recovered ? 1 : 0,
      static_cast<long long>(after_all.executed_past_deadline),
      static_cast<long long>(after_all.nonfinite_answers),
      faulted.goodput_rps, baseline_rps, nofault.goodput_rps,
      nofault_after.goodput_rps,
      static_cast<long long>(flags.goodput_floor_pct));

  bool violations = false;
  auto check = [&violations](bool ok, const std::string& what) {
    if (ok) return;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    violations = true;
  };
  check(nofault.completed > 0 && faulted.completed > 0 &&
            nofault_after.completed > 0,
        "a chaos phase completed zero requests");
  check(nofault.mismatched == 0 && faulted.mismatched == 0 &&
            nofault_after.mismatched == 0,
        "torn answers under overload/chaos");
  check(nofault.nonfinite == 0 && faulted.nonfinite == 0 &&
            nofault_after.nonfinite == 0,
        "non-finite answers were delivered");
  check(nofault_trips == 0,
        std::to_string(nofault_trips) +
            " breaker trip(s) in the no-fault phase");
  check(nofault_after_trips == 0,
        std::to_string(nofault_after_trips) +
            " breaker trip(s) in the second no-fault phase");
  check(after_nofault.nonfinite_answers == 0 &&
            after_all.nonfinite_answers == final_stats.nonfinite_answers,
        "the model produced non-finite forecasts without faults");
  check(after_all.executed_past_deadline == 0,
        std::to_string(after_all.executed_past_deadline) +
            " request(s) executed past their deadline");
  check(faulted.internal >= 1,
        "poisoned outputs did not surface as typed Internal errors");
  check(trips >= 1, "the circuit breaker never tripped");
  check(final_stats.breaker.probes >= 1, "no half-open probe was admitted");
  check(recovered && final_stats.breaker.state == serve::BreakerState::kClosed,
        std::string("breaker did not recover to closed (state=") +
            serve::BreakerStateName(final_stats.breaker.state) + ")");
  check(faulted.goodput_rps >=
            (flags.goodput_floor_pct / 100.0) * baseline_rps,
        "faulted goodput below " + std::to_string(flags.goodput_floor_pct) +
            "% of the mean no-fault goodput");

  return violations ? 1 : 0;
}

}  // namespace
}  // namespace lipformer

int main(int argc, char** argv) { return lipformer::Run(argc, argv); }
