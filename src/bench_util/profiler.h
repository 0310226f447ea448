#ifndef LIPFORMER_BENCH_UTIL_PROFILER_H_
#define LIPFORMER_BENCH_UTIL_PROFILER_H_

#include <string>
#include <vector>

#include "data/window_dataset.h"
#include "models/forecaster.h"

namespace lipformer {

// Efficiency numbers for one model configuration, mirroring the paper's
// Table III Efficiency column: parameters, MACs per inference, and wall
// clock per inference.
struct ModelProfile {
  int64_t parameters = 0;
  int64_t macs = 0;                 // multiply-accumulates per forward
  double seconds_per_inference = 0; // batch forward, eval mode
  // Storage-pool behaviour of one eval-mode forward (averaged over the
  // timed repeats): how many tensor storages were acquired, how many fell
  // through to the heap, and the freelist hit rate.
  double storage_acquires_per_inference = 0;
  double heap_allocs_per_inference = 0;
  double pool_hit_rate = 0;  // pool_hits / acquires, in [0, 1]
};

// Runs `repeats` timed forwards of one batch (eval mode, no grad) and one
// instrumented forward for the MAC count.
ModelProfile ProfileModel(Forecaster* model, const WindowDataset& data,
                          int64_t batch_size = 32, int64_t repeats = 3);

// Human formatting: 1234 -> "1.23K", 2.5e9 -> "2.50G".
std::string FormatCount(double value);
// Seconds with adaptive precision.
std::string FormatSeconds(double seconds);

// Linear-interpolated percentile (p in [0, 100]) of samples sorted in
// ascending order; NaN when empty.
double SortedPercentile(const std::vector<double>& sorted, double p);

// Bounded sample reservoir; backs the serving batcher's p50/p99 latency
// counters (serve/batcher.h). Keeps the most recent `capacity` samples in
// a ring. Not thread-safe: the owner guards it. Percentiles come from a
// sorted copy of samples() through SortedPercentile, so an owner that
// records under a lock copies under it and sorts after releasing it.
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

}  // namespace lipformer

#endif  // LIPFORMER_BENCH_UTIL_PROFILER_H_
