#ifndef LIPF_BENCHMARK_SERVING_H_
#define LIPF_BENCHMARK_SERVING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench_common.h"

namespace lipf_bench {

bool IsServingWorkload(const std::string& workload);

// The model kinds a serving workload serves, tenant 0 first.
std::vector<ModelKind> ServingKinds(const std::string& workload);

// Runs a serving workload (steady, multitenant_reload, overload): writes
// the bundles, times setup, drives the open-loop load through a
// ModelRegistry, checks every answer, and fills `report` with the
// end-to-end metrics and the load-phase layer counters. `median_batch`
// receives tenant 0's median executed batch size, which the traced
// replay times for the stage table.
Status RunServing(const Options& options, Tracer* tracer, Report* report,
                  int64_t* median_batch);

}  // namespace lipf_bench

#endif  // LIPF_BENCHMARK_SERVING_H_
