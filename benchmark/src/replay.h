#ifndef LIPF_BENCHMARK_REPLAY_H_
#define LIPF_BENCHMARK_REPLAY_H_

#include <cstdint>
#include <vector>

#include "bench_common.h"

namespace lipf_bench {

// Sets every metric ReplayServing reports to 0. A traced run reports every
// per-layer metric; a layer or model kind its workload does not use reads 0.
void ZeroServingReplay(Report* report);

// Traced replay of the serving layers, each through its public entry point
// on fresh bundles of the workload's model kinds (`kinds`, tenant 0 first,
// which must be fp32 LiPFormer): ReadCheckpoint, InferenceSession::Open /
// PlanForBatch / PredictBatch (b = 1, 2, 4, 8, 16 and `extra_batch`), and
// InferencePlan::Execute with per-op profiling. Every plan op kind is
// reported, 0 when the plan has no op of that kind.
Status ReplayServing(const Options& options, Tracer* tracer,
                     const std::vector<ModelKind>& kinds, int64_t extra_batch,
                     Report* report);

}  // namespace lipf_bench

#endif  // LIPF_BENCHMARK_REPLAY_H_
