// lipf_bench: one workload of the end-to-end benchmark, in one process.
//
//   lipf_bench --workload=NAME --seed=N --seconds=S --trace=0|1 --workdir=DIR
//
// Workloads: steady, multitenant_reload, overload, train (see
// benchmark/README.md). Progress goes to stderr; the last line of stdout
// is one JSON object with every metric the run measured, its correctness
// verdict and its validity. benchmark/run.py builds and drives this
// binary; run that instead.
//
// With --trace=1 plan-op profiling is on during the load, spans are kept
// around every call the benchmark makes into the library (written to
// DIR/spans.jsonl), and the per-layer replays run after the load.

#include <sys/stat.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "common/parse.h"
#include "common/thread_pool.h"
#include "replay.h"
#include "serving.h"
#include "train_workload.h"

namespace lipf_bench {
namespace {

bool ParseFlags(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      std::fprintf(stderr, "unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2, eq - 2);
    const std::string value = arg.substr(eq + 1);
    int64_t n = 0;
    double s = 0;
    if (key == "workload") {
      options->workload = value;
    } else if (key == "seed" && lipformer::ParseInt64(value, &n) && n >= 0) {
      options->seed = static_cast<uint64_t>(n);
    } else if (key == "seconds" && lipformer::ParseDouble(value, &s) &&
               s > 0 && s <= 600) {
      options->seconds = s;
    } else if (key == "trace" && (value == "0" || value == "1")) {
      options->trace = value == "1";
    } else if (key == "workdir" && !value.empty()) {
      options->workdir = value;
    } else {
      std::fprintf(stderr, "bad flag '%s'\n", arg.c_str());
      return false;
    }
  }
  if (options->workload != "train" && !IsServingWorkload(options->workload)) {
    std::fprintf(stderr, "unknown workload '%s'\n", options->workload.c_str());
    return false;
  }
  if (options->workdir.empty()) {
    std::fprintf(stderr, "--workdir is required\n");
    return false;
  }
  return true;
}

// Splits tenant 0's client p50 (over its last generation) into the stages
// a request passes through. Wait and delivery are derived, so the stages
// sum to that p50 by construction; measuring them directly needs stamps
// inside the library.
void SetStages(int64_t median_batch, Report* report) {
  const double client = report->Get("stage.client_p50_ms");
  const double late = report->Get("client.late_p50_ms");
  const double submit = report->Get("registry.submit_us.p50") / 1e3;
  const double server = report->Get("batcher.server_p50_ms");
  const double exec = report->Get("session.predict_batch_ms.lipf.b" +
                                  std::to_string(median_batch));
  report->Set("stage.late_ms", late, "ms");
  report->Set("stage.submit_ms", submit, "ms");
  report->Set("stage.wait_ms", server - exec, "ms");
  report->Set("stage.exec_ms", exec, "ms");
  report->Set("stage.delivery_ms", client - late - submit - server, "ms");
  report->Set("stage.exec_batch", static_cast<double>(median_batch), "rows");
}

int Run(int argc, char** argv) {
  Options options;
  if (!ParseFlags(argc, argv, &options)) return 2;
  if (::mkdir(options.workdir.c_str(), 0755) != 0 && errno != EEXIST) {
    std::fprintf(stderr, "cannot create %s: %s\n", options.workdir.c_str(),
                 std::strerror(errno));
    return 2;
  }
  lipformer::SetNumThreads(kThreads);
  Tracer tracer(options.trace);
  Report report;

  const bool serving = IsServingWorkload(options.workload);
  int64_t median_batch = 1;
  Status st = serving ? RunServing(options, &tracer, &report, &median_batch)
                      : RunTraining(options, &tracer, &report);
  if (st.ok() && options.trace) {
    // Each workload replays only the layers its load used (train calls no
    // serve function); the other layers' metrics read 0.
    ZeroServingReplay(&report);
    ZeroTrainingReplay(&report);
    if (serving) {
      st = ReplayServing(options, &tracer, ServingKinds(options.workload),
                         median_batch, &report);
      if (st.ok()) SetStages(median_batch, &report);
    } else {
      st = ReplayTraining(options, &tracer, &report);
    }
    if (st.ok()) st = tracer.WriteJsonl(options.workdir + "/spans.jsonl");
  }
  if (!st.ok()) {
    std::fprintf(stderr, "lipf_bench: %s\n", st.ToString().c_str());
    return 2;
  }
  std::printf("%s\n", report.ToJson(options).c_str());
  return 0;
}

}  // namespace
}  // namespace lipf_bench

int main(int argc, char** argv) { return lipf_bench::Run(argc, argv); }
