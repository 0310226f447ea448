#include "bench_util/profiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>

#include "tensor/ops.h"

namespace lipformer {

ModelProfile ProfileModel(Forecaster* model, const WindowDataset& data,
                          int64_t batch_size, int64_t repeats) {
  ModelProfile profile;
  profile.parameters = model->ParameterCount();

  const bool was_training = model->training();
  model->SetTraining(false);
  NoGradGuard no_grad;

  const int64_t available = data.NumWindows(Split::kTest);
  LIPF_CHECK_GT(available, 0);
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < std::min(batch_size, available); ++i) {
    ids.push_back(i);
  }
  Batch batch = data.MakeBatch(Split::kTest, ids);

  // MAC count from one instrumented forward.
  ResetMacCount();
  SetMacCountingEnabled(true);
  (void)model->Forward(batch);
  SetMacCountingEnabled(false);
  profile.macs = MacCount();
  ResetMacCount();

  // Timed forwards. The instrumented forward above has already warmed the
  // pool, so these repeats see steady-state allocation behaviour.
  ResetStoragePoolCounters();
  const auto t0 = std::chrono::steady_clock::now();
  for (int64_t r = 0; r < repeats; ++r) (void)model->Forward(batch);
  const double total =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  profile.seconds_per_inference = total / static_cast<double>(repeats);

  const StoragePoolStats pool = GetStoragePoolStats();
  const double reps = static_cast<double>(repeats);
  profile.storage_acquires_per_inference =
      static_cast<double>(pool.acquires) / reps;
  profile.heap_allocs_per_inference =
      static_cast<double>(pool.heap_allocs) / reps;
  profile.pool_hit_rate =
      pool.acquires > 0 ? static_cast<double>(pool.pool_hits) /
                              static_cast<double>(pool.acquires)
                        : 0.0;

  model->SetTraining(was_training);
  return profile;
}

std::string FormatCount(double value) {
  const char* suffix = "";
  if (value >= 1e12) {
    value /= 1e12;
    suffix = "T";
  } else if (value >= 1e9) {
    value /= 1e9;
    suffix = "G";
  } else if (value >= 1e6) {
    value /= 1e6;
    suffix = "M";
  } else if (value >= 1e3) {
    value /= 1e3;
    suffix = "K";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f%s", value, suffix);
  return buf;
}

LatencyRecorder::LatencyRecorder(int64_t capacity) : capacity_(capacity) {
  LIPF_CHECK_GT(capacity, 0);
  samples_.reserve(static_cast<size_t>(capacity));
}

void LatencyRecorder::Record(double seconds) {
  if (static_cast<int64_t>(samples_.size()) < capacity_) {
    samples_.push_back(seconds);
  } else {
    samples_[static_cast<size_t>(next_)] = seconds;
  }
  next_ = (next_ + 1) % capacity_;
}

double SortedPercentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  const double rank =
      (p / 100.0) * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::string FormatSeconds(double seconds) {
  char buf[32];
  if (seconds >= 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2fs", seconds);
  } else if (seconds >= 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.1fms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1fus", seconds * 1e6);
  }
  return buf;
}

}  // namespace lipformer
