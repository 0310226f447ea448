#include "serve/session.h"

#include <chrono>
#include <cstring>
#include <limits>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "common/fault_injection.h"
#include "common/parse.h"
#include "core/lipformer.h"
#include "data/time_features.h"
#include "data/window_dataset.h"
#include "nn/linear.h"
#include "serve/quantize.h"

namespace lipformer {
namespace serve {

namespace {

// Metadata keys of a serving bundle.
constexpr char kMetaBundle[] = "bundle";
constexpr char kMetaModel[] = "model";
constexpr char kMetaInputLen[] = "input_len";
constexpr char kMetaPredLen[] = "pred_len";
constexpr char kMetaChannels[] = "channels";
constexpr char kMetaPatchLen[] = "patch_len";
constexpr char kMetaHiddenDim[] = "hidden_dim";
constexpr char kMetaNumHeads[] = "num_heads";
constexpr char kMetaNumLayers[] = "num_layers";
constexpr char kMetaDropout[] = "dropout";
constexpr char kMetaSeed[] = "seed";
constexpr char kMetaNumCovariates[] = "num_covariates";

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

Status ParseMetaInt(const Checkpoint& ckpt, const std::string& key,
                    int64_t* out) {
  const std::string value = ckpt.Meta(key, "");
  if (value.empty()) {
    return Status::InvalidArgument("bundle metadata missing '" + key + "'");
  }
  // lipformer::ParseInt64 is strict: a value that overflows int64 (strtoll
  // would silently clamp it to LLONG_MAX) or carries trailing junk is an
  // error, not a garbage dimension.
  if (!lipformer::ParseInt64(value, out)) {
    return Status::InvalidArgument("bundle metadata '" + key +
                                   "' is not an integer: " + value);
  }
  return Status::OK();
}

Status ParseMetaFloat(const Checkpoint& ckpt, const std::string& key,
                      const std::string& def, float* out) {
  const std::string value = ckpt.Meta(key, def);
  if (!lipformer::ParseFloat(value, out)) {
    return Status::InvalidArgument("bundle metadata '" + key +
                                   "' is not a number: " + value);
  }
  return Status::OK();
}

// Loads the parameters of an int8 bundle (serve/quantize.h): plain fp32
// tensors fill their parameters directly, and each Linear weight is
// reconstructed from its "__quant__.<name>.{w8,scale}" pair — attached
// prepacked for the int8 forward and dequantized into the fp32 parameter.
Status LoadQuantizedParameters(Forecaster* model, const Checkpoint& ckpt,
                               const std::string& path) {
  std::map<std::string, Linear*> linear_weights;
  for (auto& [prefix, module] : model->NamedModules()) {
    if (auto* lin = dynamic_cast<Linear*>(module)) {
      linear_weights.emplace(prefix.empty() ? "weight" : prefix + ".weight",
                             lin);
    }
  }

  std::vector<std::string> names = model->ParameterNames();
  std::vector<Variable> params = model->Parameters();
  size_t quantized = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string& name = names[i];
    auto lin_it = linear_weights.find(name);
    const CheckpointTensor* w8t =
        lin_it != linear_weights.end()
            ? ckpt.Find(QuantWeightTensorName(name))
            : nullptr;
    if (w8t != nullptr) {
      Linear* lin = lin_it->second;
      const CheckpointTensor* scale = ckpt.Find(QuantScaleTensorName(name));
      if (scale == nullptr) {
        return Status::InvalidArgument(
            "quantized bundle " + path + " has " + QuantWeightTensorName(name) +
            " but no matching scale tensor");
      }
      const int64_t numel = lin->in_features() * lin->out_features();
      if (w8t->data.numel() != CeilDiv(numel, 4)) {
        return Status::InvalidArgument(
            "quantized weight for '" + name + "' in " + path + " has " +
            std::to_string(w8t->data.numel()) + " packed floats, expected " +
            std::to_string(CeilDiv(numel, 4)));
      }
      if (scale->data.numel() != lin->out_features()) {
        return Status::InvalidArgument(
            "quantized scale for '" + name + "' in " + path + " has " +
            std::to_string(scale->data.numel()) + " entries, expected " +
            std::to_string(lin->out_features()));
      }
      std::vector<int8_t> w8(static_cast<size_t>(numel));
      std::memcpy(w8.data(), w8t->data.data(), w8.size());
      LIPF_RETURN_IF_ERROR(lin->AttachQuantizedWeights(w8, scale->data));
      ++quantized;
      continue;
    }
    const CheckpointTensor* entry = ckpt.Find(name);
    if (entry == nullptr) {
      return Status::InvalidArgument("quantized bundle " + path +
                                     " has no tensor named '" + name + "'");
    }
    if (!SameShape(entry->data.shape(), params[i].shape())) {
      return Status::InvalidArgument(
          "shape mismatch for parameter '" + name + "' in " + path +
          ": checkpoint has " + ShapeToString(entry->data.shape()) +
          ", module expects " + ShapeToString(params[i].shape()));
    }
    const float* src = entry->data.data();
    std::copy(src, src + params[i].numel(),
              params[i].mutable_value().data());
  }
  if (quantized == 0) {
    return Status::InvalidArgument(
        "bundle " + path +
        " claims quantized=int8 but carries no __quant__ tensors");
  }
  // Every non-reserved tensor must have landed in a parameter; a surplus
  // means the file belongs to a different architecture.
  size_t plain = 0;
  for (const CheckpointTensor& t : ckpt.tensors) {
    if (t.name.rfind(kReservedTensorPrefix, 0) != 0) ++plain;
  }
  if (plain != names.size() - quantized) {
    return Status::InvalidArgument(
        "parameter count mismatch in " + path + ": checkpoint has " +
        std::to_string(plain) + " fp32 tensors, module expects " +
        std::to_string(names.size() - quantized));
  }
  return Status::OK();
}

}  // namespace

Status SaveModelBundle(const std::string& path, const std::string& model_name,
                       const ModelOptions& options, const Forecaster& model,
                       const StandardScaler& scaler) {
  bool known = false;
  for (const std::string& name : RegisteredModelNames()) {
    if (name == model_name) known = true;
  }
  if (!known) {
    return Status::InvalidArgument("cannot bundle unknown model '" +
                                   model_name + "'");
  }
  if (const auto* lip = dynamic_cast<const LiPFormer*>(&model)) {
    if (lip->has_covariate_encoder()) {
      return Status::InvalidArgument(
          "serving bundles do not support a LiPFormer with an attached "
          "covariate encoder (the weak-label path needs the dual encoder); "
          "save the backbone-only model instead");
    }
  }

  Checkpoint ckpt;
  ckpt.metadata[kMetaBundle] = "1";
  ckpt.metadata[kMetaModel] = model_name;
  ckpt.metadata[kMetaInputLen] = std::to_string(model.input_len());
  ckpt.metadata[kMetaPredLen] = std::to_string(model.pred_len());
  ckpt.metadata[kMetaChannels] = std::to_string(model.channels());
  ckpt.metadata[kMetaPatchLen] = std::to_string(options.patch_len);
  ckpt.metadata[kMetaHiddenDim] = std::to_string(options.hidden_dim);
  ckpt.metadata[kMetaNumHeads] = std::to_string(options.num_heads);
  ckpt.metadata[kMetaNumLayers] = std::to_string(options.num_layers);
  ckpt.metadata[kMetaDropout] = std::to_string(options.dropout);
  ckpt.metadata[kMetaSeed] = std::to_string(options.seed);
  ckpt.metadata[kMetaNumCovariates] = std::to_string(options.num_covariates);

  if (scaler.fitted()) {
    ckpt.tensors.push_back({kScalerMeanTensor, scaler.mean().Clone()});
    ckpt.tensors.push_back({kScalerStdTensor, scaler.std().Clone()});
  }
  std::vector<std::string> names = model.ParameterNames();
  std::vector<Variable> params = model.Parameters();
  for (size_t i = 0; i < params.size(); ++i) {
    ckpt.tensors.push_back({names[i], params[i].value().Clone()});
  }
  return WriteCheckpoint(path, ckpt);
}

Status ParseBundleConfig(const Checkpoint& ckpt, const std::string& path,
                         std::string* model_name, ForecasterDims* dims,
                         ModelOptions* options) {
  if (ckpt.Meta(kMetaBundle, "") != "1") {
    return Status::InvalidArgument(
        path + " is a bare parameter checkpoint, not a serving bundle; "
        "re-save it with `lipformer_cli train --save=...` (which writes "
        "model config and scaler alongside the weights)");
  }
  *model_name = ckpt.Meta(kMetaModel, "");
  int64_t tmp = 0;
  LIPF_RETURN_IF_ERROR(ParseMetaInt(ckpt, kMetaInputLen, &dims->input_len));
  LIPF_RETURN_IF_ERROR(ParseMetaInt(ckpt, kMetaPredLen, &dims->pred_len));
  LIPF_RETURN_IF_ERROR(ParseMetaInt(ckpt, kMetaChannels, &dims->channels));
  LIPF_RETURN_IF_ERROR(
      ParseMetaInt(ckpt, kMetaPatchLen, &options->patch_len));
  LIPF_RETURN_IF_ERROR(
      ParseMetaInt(ckpt, kMetaHiddenDim, &options->hidden_dim));
  LIPF_RETURN_IF_ERROR(
      ParseMetaInt(ckpt, kMetaNumHeads, &options->num_heads));
  LIPF_RETURN_IF_ERROR(
      ParseMetaInt(ckpt, kMetaNumLayers, &options->num_layers));
  LIPF_RETURN_IF_ERROR(ParseMetaInt(ckpt, kMetaSeed, &tmp));
  options->seed = static_cast<uint64_t>(tmp);
  LIPF_RETURN_IF_ERROR(
      ParseMetaInt(ckpt, kMetaNumCovariates, &options->num_covariates));
  LIPF_RETURN_IF_ERROR(
      ParseMetaFloat(ckpt, kMetaDropout, "0.1", &options->dropout));

  bool known = false;
  for (const std::string& name : RegisteredModelNames()) {
    if (name == *model_name) known = true;
  }
  if (!known) {
    return Status::InvalidArgument("bundle " + path +
                                   " names unknown model '" + *model_name +
                                   "'");
  }
  if (dims->input_len <= 0 || dims->pred_len <= 0 || dims->channels <= 0) {
    return Status::InvalidArgument("bundle " + path +
                                   " has non-positive dimensions");
  }
  return Status::OK();
}

Result<BundleModel> LoadBundleModel(const std::string& path) {
  Result<Checkpoint> loaded = ReadCheckpoint(path);
  if (!loaded.ok()) return loaded.status();
  const Checkpoint& ckpt = loaded.value();

  std::string model_name;
  ForecasterDims dims;
  ModelOptions options;
  LIPF_RETURN_IF_ERROR(
      ParseBundleConfig(ckpt, path, &model_name, &dims, &options));
  const std::string quant_scheme = ckpt.Meta(kMetaQuantized, "");
  if (!quant_scheme.empty() && quant_scheme != kQuantSchemeInt8) {
    return Status::InvalidArgument("bundle " + path +
                                   " uses unsupported quantization scheme '" +
                                   quant_scheme + "'");
  }

  BundleModel bundle;
  bundle.model_name = model_name;
  bundle.num_covariates = options.num_covariates;
  bundle.quantized = !quant_scheme.empty();
  bundle.model = CreateModel(model_name, dims, options);
  bundle.model->SetTraining(false);
  bundle.model->SetRequiresGrad(false);
  // The per-tensor name/shape verification inside the loaders is what
  // makes the metadata trustworthy: a bundle whose weights belong to a
  // different architecture fails here, naming the offending parameter.
  if (bundle.quantized) {
    LIPF_RETURN_IF_ERROR(
        LoadQuantizedParameters(bundle.model.get(), ckpt, path));
  } else {
    LIPF_RETURN_IF_ERROR(bundle.model->LoadParameters(path));
  }

  const CheckpointTensor* mean = ckpt.Find(kScalerMeanTensor);
  const CheckpointTensor* std_t = ckpt.Find(kScalerStdTensor);
  if ((mean == nullptr) != (std_t == nullptr)) {
    return Status::InvalidArgument("bundle " + path +
                                   " has half a scaler (mean xor std)");
  }
  if (mean != nullptr) {
    if (mean->data.dim() != 1 || std_t->data.dim() != 1 ||
        mean->data.size(0) != dims.channels ||
        std_t->data.size(0) != dims.channels) {
      return Status::InvalidArgument(
          "bundle " + path + " scaler shape does not match channels=" +
          std::to_string(dims.channels));
    }
    for (int64_t j = 0; j < std_t->data.size(0); ++j) {
      if (!(std_t->data.data()[j] > 0.0f)) {
        return Status::InvalidArgument("bundle " + path +
                                       " scaler has non-positive std");
      }
    }
    bundle.scaler.Restore(mean->data.Clone(), std_t->data.Clone());
  }
  return bundle;
}

Tensor BundleModel::Forward(const Tensor& histories) {
  const Tensor x = scaler.fitted() ? scaler.Transform(histories) : histories;
  const int64_t b = x.size(0);
  Batch batch;
  batch.size = b;
  batch.x = x;
  // Serving requests carry raw values only; implicit time features and
  // future covariates are zero (bundles record num_covariates so models
  // that read batch.y_cov_num still see the channel count they expect).
  batch.x_time = Tensor(Shape{b, model->input_len(), kNumTimeFeatures});
  batch.y_time = Tensor(Shape{b, model->pred_len(), kNumTimeFeatures});
  batch.y_cov_num = Tensor(Shape{b, model->pred_len(), num_covariates});
  batch.y_cov_cat = Tensor(Shape{b, model->pred_len(), 0});
  Tensor scaled_pred;
  {
    NoGradGuard no_grad;
    scaled_pred = model->Forward(batch).value();
  }
  return scaler.fitted() ? scaler.InverseTransform(scaled_pred) : scaled_pred;
}

Result<std::unique_ptr<InferenceSession>> InferenceSession::Open(
    const std::string& path) {
  if (fault::ShouldFailOpen()) {
    return Status::IOError("injected fault: InferenceSession::Open failed "
                           "for " + path);
  }
  Result<BundleModel> bundle = LoadBundleModel(path);
  if (!bundle.ok()) return bundle.status();
  auto session = std::unique_ptr<InferenceSession>(new InferenceSession());
  session->bundle_ = bundle.MoveValue();

  // Trace and validation inputs only need distinct values — any
  // fixed-seed noise exercises the graph. The traced forward is the whole
  // module request path, so the plan covers the scaler arithmetic too.
  // A model that does not compile cannot serve.
  Rng rng(0x9e3779b97f4a7c15ull);
  const int64_t in = session->input_len(), ch = session->channels();
  Result<std::shared_ptr<const InferencePlan>> compiled =
      InferencePlan::Compile(
          [&session](const Tensor& x) { return session->bundle_.Forward(x); },
          Tensor::Randn({1, in, ch}, rng), Tensor::Randn({3, in, ch}, rng));
  if (!compiled.ok()) return compiled.status();
  session->plan_ = compiled.MoveValue();
  {
    // Timed validation probe: one single-window plan execution. The
    // measurement seeds the batcher's admission-control cost EWMA so
    // shedding works from the very first request instead of waiting for
    // the estimate to warm up.
    Tensor sample = Tensor::Randn({1, in, ch}, rng);
    const auto probe_start = std::chrono::steady_clock::now();
    Result<Tensor> probe = session->PredictBatch(sample);
    if (!probe.ok()) return probe.status();
    session->probe_latency_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      probe_start)
            .count();
  }
  return session;
}

Result<Tensor> InferenceSession::Predict(const Tensor& history) {
  if (history.dim() != 2) {
    return Status::InvalidArgument("Predict expects [input_len, channels], "
                                   "got " + ShapeToString(history.shape()));
  }
  Result<Tensor> batched =
      PredictBatch(history.Reshape({1, history.size(0), history.size(1)}));
  if (!batched.ok()) return batched.status();
  return batched.value().Reshape({pred_len(), channels()});
}

Result<Tensor> InferenceSession::PredictBatch(const Tensor& histories) {
  if (histories.dim() != 3 || histories.size(1) != input_len() ||
      histories.size(2) != channels()) {
    return Status::InvalidArgument(
        "PredictBatch expects [b, " + std::to_string(input_len()) + ", " +
        std::to_string(channels()) + "], got " +
        ShapeToString(histories.shape()));
  }
  if (histories.size(0) == 0) {
    return Status::InvalidArgument("PredictBatch got an empty batch");
  }

  // Chaos hooks (common/fault_injection.h): slow_infer stalls this
  // forward, poison_output corrupts its result — both no-ops unless a
  // test armed them.
  const fault::InferFault injected = fault::OnInferCall();
  if (injected.delay_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(injected.delay_ms));
  }

  // The compiled program is immutable, so this runs lock-free, bitwise
  // identical to the module request path — scaler arithmetic included —
  // as validated at compile time.
  Tensor pred = plan_->Execute(histories);
  if (injected.poison_output) {
    float* data = pred.data();
    const int64_t n = pred.numel();
    for (int64_t i = 0; i < n; ++i) {
      data[i] = std::numeric_limits<float>::quiet_NaN();
    }
  }
  return pred;
}

}  // namespace serve
}  // namespace lipformer
