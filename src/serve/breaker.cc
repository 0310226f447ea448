#include "serve/breaker.h"

#include <algorithm>

namespace lipformer {
namespace serve {

const char* BreakerStateName(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "unknown";
}

CircuitBreaker::Admission CircuitBreaker::Admit(Clock::time_point now) {
  if (!enabled()) return Admission::kAdmit;
  switch (stats_.state) {
    case BreakerState::kClosed:
      return Admission::kAdmit;
    case BreakerState::kOpen:
      if (now < open_until_) {
        ++stats_.rejected;
        return Admission::kReject;
      }
      stats_.state = BreakerState::kHalfOpen;
      probes_in_flight_ = 0;
      probe_successes_ = 0;
      [[fallthrough]];
    case BreakerState::kHalfOpen:
      // One probe in flight at a time: a broken model must see a trickle,
      // not a thundering herd, while it proves itself.
      if (probes_in_flight_ >= 1) {
        ++stats_.rejected;
        return Admission::kReject;
      }
      ++probes_in_flight_;
      ++stats_.probes;
      return Admission::kAdmitProbe;
  }
  return Admission::kAdmit;
}

void CircuitBreaker::OnSuccess(bool probe) {
  if (!enabled()) return;
  stats_.consecutive_failures = 0;
  if (probe && stats_.state == BreakerState::kHalfOpen) {
    probes_in_flight_ = std::max<int64_t>(0, probes_in_flight_ - 1);
    if (++probe_successes_ >= options_.half_open_successes) {
      stats_.state = BreakerState::kClosed;
      probe_successes_ = 0;
    }
  }
}

void CircuitBreaker::OnFailure(bool probe, Clock::time_point now) {
  if (!enabled()) return;
  ++stats_.consecutive_failures;
  if (probe && stats_.state == BreakerState::kHalfOpen) {
    // The model is still broken: re-open for another cooldown.
    probes_in_flight_ = 0;
    probe_successes_ = 0;
    TripLocked(now);
    return;
  }
  // Results from requests admitted before a trip keep arriving while the
  // breaker is open/half-open; they only feed the failure counter. Only a
  // CLOSED breaker trips on the threshold.
  if (stats_.state == BreakerState::kClosed &&
      stats_.consecutive_failures >= options_.failure_threshold) {
    TripLocked(now);
  }
}

void CircuitBreaker::AbandonProbe() {
  if (!enabled()) return;
  probes_in_flight_ = std::max<int64_t>(0, probes_in_flight_ - 1);
}

void CircuitBreaker::TripLocked(Clock::time_point now) {
  stats_.state = BreakerState::kOpen;
  open_until_ = now + options_.cooldown;
  ++stats_.trips;
}

BreakerStats CircuitBreaker::Stats(Clock::time_point now) const {
  BreakerStats s = stats_;
  if (enabled() && s.state == BreakerState::kOpen && open_until_ > now) {
    s.retry_after = std::chrono::duration_cast<std::chrono::milliseconds>(
        open_until_ - now);
  }
  return s;
}

}  // namespace serve
}  // namespace lipformer
