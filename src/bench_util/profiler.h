#ifndef LIPFORMER_BENCH_UTIL_PROFILER_H_
#define LIPFORMER_BENCH_UTIL_PROFILER_H_

#include <string>

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

}  // namespace lipformer

#endif  // LIPFORMER_BENCH_UTIL_PROFILER_H_
