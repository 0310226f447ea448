#ifndef LIPFORMER_SERVE_SESSION_H_
#define LIPFORMER_SERVE_SESSION_H_

#include <memory>
#include <string>

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
// Forward is the module request path: InferenceSession traces its plan
// from it and checks it against it, and tests use it as the oracle.
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

// A loaded bundle served through one compiled plan (serve/plan.h), traced
// from the module forward at Open and memcmp-checked against it. The plan
// serves every batch size row by row. Safe for concurrent callers: the
// plan is an immutable program executed against per-row arenas, so
// requests run fully concurrently, and the module forward runs only
// inside Open. The dynamic batcher (serve/batcher.h) coalesces concurrent
// requests into one PredictBatch call.
class InferenceSession {
 public:
  // Reads a bundle written by SaveModelBundle, reconstructs the model and
  // compiles its plan. A model whose forward does not compile, or whose
  // rows interact, is a non-OK Status, never a slower path.
  static Result<std::unique_ptr<InferenceSession>> Open(
      const std::string& path);

  // history: [input_len, channels] raw units -> [pred_len, channels].
  Result<Tensor> Predict(const Tensor& history);

  // histories: [b, input_len, channels] -> [b, pred_len, channels].
  // Row i of the result is bitwise identical to Predict(histories[i]):
  // the plan runs each row on its own, and every kernel computes each
  // output element with the same serial inner loop regardless of thread
  // count (see common/thread_pool.h).
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

  // The plan that serves a batch of b rows: the session's one plan for
  // every b >= 1, null below that.
  std::shared_ptr<const InferencePlan> PlanForBatch(int64_t b) const {
    return b >= 1 ? plan_ : nullptr;
  }
  // Toggles per-op timing on the plan.
  void SetPlanProfiling(bool enabled) { plan_->set_profiling(enabled); }

 private:
  InferenceSession() = default;

  // The trace source, run only inside Open; it also owns the int8 weights
  // the plan's quantized ops point at.
  BundleModel bundle_;
  std::shared_ptr<const InferencePlan> plan_;
  double probe_latency_seconds_ = 0;
};

}  // namespace serve
}  // namespace lipformer

#endif  // LIPFORMER_SERVE_SESSION_H_
