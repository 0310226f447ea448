#ifndef LIPFORMER_SERVE_SESSION_H_
#define LIPFORMER_SERVE_SESSION_H_

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "data/scaler.h"
#include "models/factory.h"
#include "serve/checkpoint.h"
#include "serve/plan.h"

// Train-once / serve-many: a serving bundle is a checkpoint v2 file that
// additionally carries the model architecture (factory name + dims +
// ModelOptions as metadata) and the fitted scaler (reserved "__scaler__.*"
// tensors), so inference needs nothing but the file — no retraining, no
// out-of-band config. InferenceSession loads a bundle once and answers
// Predict calls in raw (unscaled) units.

namespace lipformer {
namespace serve {

// Reserved tensor names carrying the fitted scaler inside a bundle.
inline constexpr char kScalerMeanTensor[] = "__scaler__.mean";
inline constexpr char kScalerStdTensor[] = "__scaler__.std";

// Writes a self-contained serving bundle for a factory-reconstructible
// model. `model_name` must be a RegisteredModelNames() entry and
// `options` the hyperparameters the model was built with (the factory
// rebuilds the architecture from them at load time; LoadParameters'
// per-tensor name/shape verification then guarantees the metadata and
// the weights agree). A LiPFormer with an attached covariate encoder is
// rejected: its weak-label path needs the dual encoder, which bundles do
// not carry. An unfitted scaler is allowed (the session then serves in
// model units).
Status SaveModelBundle(const std::string& path, const std::string& model_name,
                       const ModelOptions& options, const Forecaster& model,
                       const StandardScaler& scaler);

// Parses and validates the architecture metadata of a serving bundle:
// bundle marker present, model name registered, dimensions positive, and
// every value strictly parsed (out-of-range integers and trailing junk
// are InvalidArgument, never silently clamped). `path` is used only for
// error messages. Shared by InferenceSession::Open and the bundle
// quantizer (serve/quantize.h).
Status ParseBundleConfig(const Checkpoint& ckpt, const std::string& path,
                         std::string* model_name, ForecasterDims* dims,
                         ModelOptions* options);

// The model and scaler a serving bundle describes, loaded and verified.
// Forward is the module request path: InferenceSession traces its plans
// from it and checks them against it, and tests use it as the oracle.
struct BundleModel {
  std::string model_name;
  std::unique_ptr<Forecaster> model;
  StandardScaler scaler;
  int64_t num_covariates = 0;
  bool quantized = false;  // int8 Linear weights (serve/quantize.h)

  // Raw histories [b, input_len, channels] -> raw predictions
  // [b, pred_len, channels]: scaler transform, eval-mode forward under
  // NoGradGuard, inverse transform. Not reentrant (modules keep lazily
  // built caches).
  Tensor Forward(const Tensor& histories);
};

// Reads a bundle written by SaveModelBundle (fp32 or int8) and rebuilds
// its model and scaler.
Result<BundleModel> LoadBundleModel(const std::string& path);

// Plan observability for `lipformer_cli serve` stats and the plan.*
// metrics of benchmark/ (aggregated over the session's per-batch-size
// plan cache).
struct SessionPlanStats {
  int64_t plans_compiled = 0;    // distinct batch sizes compiled
  PlanStats plan;                // batch-size-1 plan (or first compiled)
  std::vector<PlanOpTiming> timings;  // summed across plans; profiling only
};

// A loaded bundle served through compiled plans (serve/plan.h): one plan
// per batch size, traced from the module forward and memcmp-checked
// against it at compile time. Safe for concurrent callers: a plan is an
// immutable program executed against a per-request arena, so requests
// run fully concurrently; the module forward runs only while a plan
// compiles, under the plan-cache mutex. The dynamic batcher
// (serve/batcher.h) coalesces concurrent requests into one batched plan.
class InferenceSession {
 public:
  // Reads a bundle written by SaveModelBundle, reconstructs the model and
  // compiles the batch-size-1 plan. A model whose forward does not
  // compile is a non-OK Status, never a slower path.
  static Result<std::unique_ptr<InferenceSession>> Open(
      const std::string& path);

  // history: [input_len, channels] raw units -> [pred_len, channels].
  Result<Tensor> Predict(const Tensor& history);

  // histories: [b, input_len, channels] -> [b, pred_len, channels].
  // Row i of the result is bitwise identical to Predict(histories[i]):
  // every kernel computes each output element with the same serial inner
  // loop regardless of batch size (see common/thread_pool.h). The first
  // batch of a new size compiles its plan; a compile failure is returned.
  Result<Tensor> PredictBatch(const Tensor& histories);

  const std::string& model_name() const { return bundle_.model_name; }
  int64_t input_len() const { return bundle_.model->input_len(); }
  int64_t pred_len() const { return bundle_.model->pred_len(); }
  int64_t channels() const { return bundle_.model->channels(); }
  int64_t num_covariates() const { return bundle_.num_covariates; }
  // True when the bundle carried int8 weights (serve/quantize.h) and
  // Predict runs the quantized Linear path.
  bool quantized() const { return bundle_.quantized; }

  // Wall-clock seconds of the timed single-window forward run at Open
  // (after plan compilation, so it measures the path requests will take).
  // Seeds the batcher's admission-control cost EWMA; 0 if the probe was
  // skipped.
  double probe_latency_seconds() const { return probe_latency_seconds_; }

  // The compiled plan for batch size b, compiling (and caching) it on
  // first use. Null when this batch size failed to compile.
  std::shared_ptr<const InferencePlan> PlanForBatch(int64_t b);
  // Aggregated plan counters; `timings` is populated while profiling.
  SessionPlanStats plan_stats() const;
  // Toggles per-op timing on every cached and future plan.
  void SetPlanProfiling(bool enabled);

 private:
  InferenceSession() = default;

  // PlanForBatch with the compile error kept. A failure is cached like a
  // plan, so a batch size that cannot compile fails fast from then on.
  Result<std::shared_ptr<const InferencePlan>> Plan(int64_t b);

  BundleModel bundle_;  // the trace source; used only under plan_mu_
  double probe_latency_seconds_ = 0;

  mutable std::mutex plan_mu_;
  std::map<int64_t, Result<std::shared_ptr<const InferencePlan>>> plans_;
  bool plan_profiling_ = false;
};

}  // namespace serve
}  // namespace lipformer

#endif  // LIPFORMER_SERVE_SESSION_H_
