#ifndef LIPF_BENCHMARK_BENCH_COMMON_H_
#define LIPF_BENCHMARK_BENCH_COMMON_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

// Shared pieces of lipf_bench: the fixed settings every workload uses, the
// per-run report, order statistics, in-memory spans, and the serving
// bundles/windows/references the workloads are built from.

namespace lipf_bench {

using lipformer::Status;
using lipformer::Tensor;
using Clock = std::chrono::steady_clock;

// Fixed settings (benchmark/README.md "Fixed settings"). They are constants,
// not flags: two runs are comparable only when these are equal.
// Tensor thread pool, sized for a 4-core host with one core left to the
// client. On a shared 4-vCPU VM a 1-thread pool read 2-3x noisier run to
// run: one core's speed swings ~35% with its SMT sibling's load, and
// three threads taking chunks from one queue average that out.
inline constexpr int kThreads = 3;
inline constexpr int64_t kMaxBatch = 16;       // batcher max_batch_size
inline constexpr int64_t kQueueCapacity = 4096;
inline constexpr int64_t kWindowPool = 256;    // distinct request windows
inline constexpr int64_t kInputLen = 336;      // Weather-like paper scale
inline constexpr int64_t kPredLen = 96;
inline constexpr int64_t kChannels = 21;
inline constexpr int64_t kHiddenDim = 64;
inline constexpr int kSetupRepeats = 5;  // serving setup_s is their median
inline constexpr double kLateLimitMs = 2.0;    // validity guard

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 15;
  bool trace = false;
  std::string workdir;  // bundles and the span log live here
};

double Seconds(Clock::duration d);
double Ms(Clock::duration d);

// Linear-interpolated percentile, p in [0, 100]; NaN for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Peak resident set of this process, MiB.
double PeakRssMb();

// Everything one run measured, by metric name, plus its correctness
// verdict. Serialized to stdout as one JSON object for benchmark/run.py.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // NaN when `name` was not set.
  double Get(const std::string& name) const;
  // Records a violated correctness check; the run is then incorrect.
  void Violation(const std::string& what);

  int64_t attempted = 0;
  int64_t failed = 0;
  bool valid = true;

  std::string ToJson(const Options& options) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> violations_;
};

// In-memory spans (name, start, end, parent, request id), one log per
// thread so recording never contends. Written as JSONL when the run ends.
struct Span {
  const char* name = nullptr;
  int64_t id = 0;
  int64_t parent = 0;    // 0: root
  int64_t request = -1;  // -1: not a request
  Clock::time_point start;
  Clock::time_point end;
};

class SpanLog {
 public:
  void Add(const Span& span) { spans_.push_back(span); }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  // A log owned by the tracer, for one thread; nullptr when disabled, so
  // untraced runs pay nothing.
  SpanLog* NewLog();
  int64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  Status WriteJsonl(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::atomic<int64_t> next_id_{1};
  mutable std::mutex mu_;  // guards logs_
  std::vector<std::unique_ptr<SpanLog>> logs_;
};

// Records [construction, destruction) as one span when `log` is non-null.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, SpanLog* log, const char* name,
             int64_t parent = 0, int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  Span span_;
};

// The serving models. Weights are fixed per kind (and per generation), so
// every seed serves the same models; the seed drives traffic and windows.
enum class ModelKind { kLipf, kLipfInt8, kDLinear };
const char* ModelKindName(ModelKind kind);

// Writes the bundle of `kind` (generation `generation` of its weights) to
// `path` at the paper-scale config.
Status WriteBundle(ModelKind kind, int generation, const std::string& path);

// kWindowPool distinct [kInputLen, kChannels] request windows from `seed`.
std::vector<Tensor> MakeWindows(uint64_t seed);

// The serial-session answer of the bundle at `path` for every window. The
// registry's batched answers must equal these bitwise.
Status SerialReferences(const std::string& path,
                        const std::vector<Tensor>& windows,
                        std::vector<Tensor>* out);

bool BitwiseEqual(const Tensor& a, const Tensor& b);
bool AllFinite(const Tensor& t);

}  // namespace lipf_bench

#endif  // LIPF_BENCHMARK_BENCH_COMMON_H_
