#include "replay.h"

#include <cstring>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "serve/checkpoint.h"
#include "serve/plan.h"
#include "serve/session.h"
#include "tensor/op_trace.h"

namespace lipf_bench {
namespace {

namespace serve = lipformer::serve;
namespace trace = lipformer::trace;

constexpr int kWarmCalls = 5;
constexpr int64_t kReplayBatches[] = {1, 2, 4, 8, 16};
constexpr int64_t kPlanBatches[] = {1, kMaxBatch};
constexpr ModelKind kAllKinds[] = {ModelKind::kLipf, ModelKind::kLipfInt8,
                                   ModelKind::kDLinear};

std::string PredictName(ModelKind kind, int64_t b) {
  return std::string("session.predict_batch_ms.") + ModelKindName(kind) +
         ".b" + std::to_string(b);
}

// Timed calls per replayed batch size: 200, fewer for the large batches so
// each size costs a similar wall time.
int CallsFor(int64_t b) { return b <= 2 ? 200 : static_cast<int>(400 / b); }

Tensor BatchOf(const std::vector<Tensor>& windows, int64_t b) {
  Tensor batch = Tensor::Empty({b, kInputLen, kChannels});
  const size_t row = static_cast<size_t>(kInputLen * kChannels);
  for (int64_t i = 0; i < b; ++i) {
    std::memcpy(batch.data() + i * kInputLen * kChannels,
                windows[static_cast<size_t>(i) % windows.size()].data(),
                row * sizeof(float));
  }
  return batch;
}

// Median wall time of one call, ms, over `calls` calls after a warm-up.
template <typename Fn>
double MedianCallMs(int calls, Fn&& fn) {
  for (int i = 0; i < kWarmCalls; ++i) fn();
  std::vector<double> ms;
  ms.reserve(static_cast<size_t>(calls));
  for (int i = 0; i < calls; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(Ms(Clock::now() - t0));
  }
  return Median(std::move(ms));
}

std::map<std::string, int64_t> OpNs(const serve::InferencePlan& plan) {
  std::map<std::string, int64_t> ns;
  for (const serve::PlanOpTiming& t : plan.OpTimings()) ns[t.name] = t.total_ns;
  return ns;
}

struct PlanTimes {
  double execute_us = 0;                 // median unprofiled Execute
  std::map<std::string, double> op_us;  // median per-call time per kind
};

// Alternates unprofiled and profiled executions of `plan`, so both see the
// same state of the machine, and takes the median of each.
PlanTimes ReplayPlan(Tracer* tracer, SpanLog* log,
                     serve::InferenceSession* session,
                     const serve::InferencePlan& plan, const Tensor& input,
                     int calls) {
  for (int i = 0; i < kWarmCalls; ++i) (void)plan.Execute(input);
  std::vector<double> execute_us;
  std::map<std::string, std::vector<double>> op_us;
  for (int i = 0; i < calls; ++i) {
    session->SetPlanProfiling(false);
    {
      ScopedSpan span(tracer, log, "plan.execute");
      const Clock::time_point t0 = Clock::now();
      (void)plan.Execute(input);
      execute_us.push_back(Ms(Clock::now() - t0) * 1e3);
    }
    session->SetPlanProfiling(true);
    const std::map<std::string, int64_t> before = OpNs(plan);
    (void)plan.Execute(input);
    for (const auto& [name, ns] : OpNs(plan)) {
      auto it = before.find(name);
      const int64_t base = it == before.end() ? 0 : it->second;
      op_us[name].push_back(static_cast<double>(ns - base) / 1e3);
    }
  }
  session->SetPlanProfiling(false);
  PlanTimes times;
  times.execute_us = Median(std::move(execute_us));
  for (auto& [name, us] : op_us) times.op_us[name] = Median(std::move(us));
  return times;
}

}  // namespace

void ZeroServingReplay(Report* report) {
  report->Set("checkpoint.read_ms", 0, "ms");
  report->Set("session.open_s", 0, "s");
  report->Set("session.compile_s", 0, "s");
  for (ModelKind kind : kAllKinds) {
    for (int64_t b : kReplayBatches) report->Set(PredictName(kind, b), 0, "ms");
  }
  for (int64_t b : kPlanBatches) {
    const std::string tag = ".b" + std::to_string(b);
    report->Set("plan.execute_us" + tag, 0, "us");
    report->Set("plan.op_sum_us" + tag, 0, "us");
    for (int k = 0; k < static_cast<int>(trace::OpKind::kNumKinds); ++k) {
      report->Set(std::string("plan.op_us.") +
                      trace::OpKindName(static_cast<trace::OpKind>(k)) + tag,
                  0, "us");
    }
  }
  report->Set("plan.ops", 0, "count");
  report->Set("plan.arena_bytes", 0, "bytes");
}

Status ReplayServing(const Options& options, Tracer* tracer,
                     const std::vector<ModelKind>& kinds, int64_t extra_batch,
                     Report* report) {
  if (kinds.empty() || kinds[0] != ModelKind::kLipf) {
    return Status::InvalidArgument("the serving replay starts at fp32 LiPFormer");
  }
  SpanLog* log = tracer->NewLog();
  std::map<ModelKind, std::string> paths;
  for (ModelKind kind : kinds) {
    paths[kind] = options.workdir + "/replay." + ModelKindName(kind) + ".bundle";
    LIPF_RETURN_IF_ERROR(WriteBundle(kind, 0, paths[kind]));
  }
  const std::string& lipf = paths[ModelKind::kLipf];
  const std::vector<Tensor> windows = MakeWindows(options.seed);

  std::vector<double> read_ms;
  for (int i = 0; i < 20; ++i) {
    ScopedSpan span(tracer, log, "checkpoint.read");
    const Clock::time_point t0 = Clock::now();
    auto ckpt = serve::ReadCheckpoint(lipf);
    if (!ckpt.ok()) return ckpt.status();
    read_ms.push_back(Ms(Clock::now() - t0));
  }
  report->Set("checkpoint.read_ms", Median(read_ms), "ms");

  std::vector<double> open_s, compile_s;
  for (int r = 0; r < 3; ++r) {
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<serve::InferenceSession> session;
    {
      ScopedSpan span(tracer, log, "session.open");
      auto opened = serve::InferenceSession::Open(lipf);
      if (!opened.ok()) return opened.status();
      session = std::move(opened.value());
    }
    const Clock::time_point t1 = Clock::now();
    for (int64_t b = 2; b <= kMaxBatch; ++b) {
      ScopedSpan span(tracer, log, "session.plan_for_batch");
      (void)session->PlanForBatch(b);
    }
    open_s.push_back(Seconds(t1 - t0));
    compile_s.push_back(Seconds(Clock::now() - t1));
  }
  report->Set("session.open_s", Median(open_s), "s");
  report->Set("session.compile_s", Median(compile_s), "s");

  for (ModelKind kind : kinds) {
    auto opened = serve::InferenceSession::Open(paths[kind]);
    if (!opened.ok()) return opened.status();
    serve::InferenceSession* session = opened.value().get();
    std::vector<int64_t> sizes(std::begin(kReplayBatches),
                               std::end(kReplayBatches));
    if (kind == ModelKind::kLipf && (extra_batch & (extra_batch - 1)) != 0) {
      sizes.push_back(extra_batch);
    }
    for (int64_t b : sizes) {
      const Tensor batch = BatchOf(windows, b);
      bool ok = true;
      const double ms = MedianCallMs(CallsFor(b), [&] {
        ScopedSpan span(tracer, log, "session.predict_batch");
        ok = session->PredictBatch(batch).ok() && ok;
      });
      if (!ok) report->Violation("replay PredictBatch failed");
      report->Set(PredictName(kind, b), ms, "ms");
    }
    if (kind == ModelKind::kDLinear) continue;

    // Plan layer: Execute alone and every op kind under profiling. The
    // fp32 plan reports its kinds; the int8 plan adds quant_linear.
    for (int64_t b : kPlanBatches) {
      std::shared_ptr<const serve::InferencePlan> plan =
          session->PlanForBatch(b);
      if (plan == nullptr) {
        return Status::Internal(std::string(ModelKindName(kind)) +
                                " did not compile a plan");
      }
      const std::string tag = ".b" + std::to_string(b);
      const PlanTimes times = ReplayPlan(tracer, log, session, *plan,
                                         BatchOf(windows, b), CallsFor(b));
      if (kind == ModelKind::kLipf) {
        double sum = 0;
        for (const auto& [name, us] : times.op_us) {
          report->Set("plan.op_us." + name + tag, us, "us");
          sum += us;
        }
        report->Set("plan.execute_us" + tag, times.execute_us, "us");
        report->Set("plan.op_sum_us" + tag, sum, "us");
      } else {
        auto it = times.op_us.find("quant_linear");
        if (it == times.op_us.end()) {
          return Status::Internal("the int8 plan has no quant_linear op");
        }
        report->Set("plan.op_us.quant_linear" + tag, it->second, "us");
      }
    }
    if (kind == ModelKind::kLipf) {
      const serve::PlanStats& stats = session->PlanForBatch(1)->stats();
      report->Set("plan.ops", static_cast<double>(stats.num_ops), "count");
      report->Set("plan.arena_bytes", static_cast<double>(stats.arena_bytes),
                  "bytes");
    }
  }
  return Status::OK();
}

}  // namespace lipf_bench
