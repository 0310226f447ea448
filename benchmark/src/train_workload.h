#ifndef LIPF_BENCHMARK_TRAIN_WORKLOAD_H_
#define LIPF_BENCHMARK_TRAIN_WORKLOAD_H_

#include "bench_common.h"

namespace lipf_bench {

// The `train` workload: TrainAndEvaluate on a synthetic ETTh1-like series,
// one epoch per call, for the run's duration. No serve function is called.
Status RunTraining(const Options& options, Tracer* tracer, Report* report);

// Traced replay of the training layers: Forward, Backward and AdamW::Step
// each timed per call over 50 steps, and one test-split Evaluate.
Status ReplayTraining(const Options& options, Tracer* tracer, Report* report);

// Sets every metric ReplayTraining reports to 0, for the serving workloads.
void ZeroTrainingReplay(Report* report);

}  // namespace lipf_bench

#endif  // LIPF_BENCHMARK_TRAIN_WORKLOAD_H_
