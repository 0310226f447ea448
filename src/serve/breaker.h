#ifndef LIPFORMER_SERVE_BREAKER_H_
#define LIPFORMER_SERVE_BREAKER_H_

#include <chrono>
#include <cstdint>

// Per-model circuit breaker for the serving path. A model that fails
// requests back-to-back (forward errors, non-finite forecasts) is taken
// out of rotation instead of burning batch slots on work that will fail:
//
//             failure_threshold consecutive failures
//   CLOSED ------------------------------------------> OPEN
//     ^                                                  | cooldown
//     |   half_open_successes probe successes            v
//     +--------------------------------------------- HALF-OPEN
//                     (a probe failure re-trips to OPEN)
//
// While OPEN every request is rejected immediately with a retry-after
// hint. After `cooldown` the breaker admits one probe request at a time
// (HALF-OPEN); `half_open_successes` consecutive probe successes close
// it, a single probe failure re-opens it for another cooldown.
//
// The breaker is NOT internally synchronized: the batcher calls it under
// its own queue mutex (admission in Submit, feedback in RunOneBatch),
// which is also what makes trip/half-open/reset transitions atomic with
// respect to concurrent submitters.

namespace lipformer {
namespace serve {

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* BreakerStateName(BreakerState state);

struct BreakerOptions {
  // Consecutive request failures that trip the breaker; <= 0 disables it
  // (Admit always passes, no state is kept).
  int64_t failure_threshold = 8;
  // How long the breaker stays open before probing.
  std::chrono::milliseconds cooldown{250};
  // Consecutive successful probes needed to close again.
  int64_t half_open_successes = 2;
};

// Read-only snapshot for stats surfaces.
struct BreakerStats {
  BreakerState state = BreakerState::kClosed;
  int64_t trips = 0;                  // closed/half-open -> open transitions
  int64_t probes = 0;                 // requests admitted in half-open
  int64_t rejected = 0;               // requests bounced while open
  int64_t consecutive_failures = 0;
  // Suggested client backoff: time until the next probe window (0 when
  // the breaker is not open).
  std::chrono::milliseconds retry_after{0};
};

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  enum class Admission {
    kAdmit,       // closed (or breaker disabled)
    kAdmitProbe,  // half-open: caller must report this request's outcome
                  // with probe=true
    kReject,      // open: shed with retry-after
  };

  explicit CircuitBreaker(BreakerOptions options) : options_(options) {}

  // Admission decision for one request at `now`. An OPEN breaker whose
  // cooldown has elapsed flips to HALF-OPEN and admits the caller as the
  // probe; further callers are rejected until that probe resolves.
  Admission Admit(Clock::time_point now);

  // Outcome of an admitted request. `probe` must be true iff Admit
  // returned kAdmitProbe for it.
  void OnSuccess(bool probe);
  void OnFailure(bool probe, Clock::time_point now);

  // A probe left the system without an outcome (its deadline expired in
  // the queue). Releases the probe slot so recovery cannot wedge behind
  // a probe that will never resolve.
  void AbandonProbe();

  BreakerStats Stats(Clock::time_point now) const;
  BreakerState state() const { return stats_.state; }
  bool enabled() const { return options_.failure_threshold > 0; }

 private:
  void TripLocked(Clock::time_point now);

  BreakerOptions options_;
  // State and counters; Stats(now) copies them and fills retry_after.
  BreakerStats stats_;
  Clock::time_point open_until_{};
  int64_t probes_in_flight_ = 0;
  int64_t probe_successes_ = 0;
};

}  // namespace serve
}  // namespace lipformer

#endif  // LIPFORMER_SERVE_BREAKER_H_
