#include "serve/quantize.h"

#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "common/atomic_file.h"
#include "models/factory.h"
#include "nn/linear.h"
#include "serve/checkpoint.h"
#include "serve/session.h"
#include "tensor/gemm_int8.h"

namespace lipformer {
namespace serve {

namespace {
inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }
}  // namespace

std::string QuantWeightTensorName(const std::string& param) {
  return "__quant__." + param + ".w8";
}

std::string QuantScaleTensorName(const std::string& param) {
  return "__quant__." + param + ".scale";
}

Status QuantizeBundleFile(const std::string& in_path,
                          const std::string& out_path, bool force) {
  if (!force && PathExists(out_path)) {
    return Status::InvalidArgument(
        "refusing to overwrite existing file " + out_path +
        " (pass --force to replace it)");
  }

  Result<Checkpoint> loaded = ReadCheckpoint(in_path);
  if (!loaded.ok()) return loaded.status();
  const Checkpoint& ckpt = loaded.value();

  std::string model_name;
  ForecasterDims dims;
  ModelOptions options;
  LIPF_RETURN_IF_ERROR(
      ParseBundleConfig(ckpt, in_path, &model_name, &dims, &options));
  if (ckpt.Meta(kMetaQuantized, "") != "") {
    return Status::InvalidArgument(
        in_path + " is already quantized (quantized=" +
        ckpt.Meta(kMetaQuantized, "") + ")");
  }

  // Rebuild the architecture and load the fp32 weights through the
  // verifying loader: after this the module's parameters are the
  // authoritative fp32 values and every name/shape in the file has been
  // checked against the metadata's architecture.
  std::unique_ptr<Forecaster> model = CreateModel(model_name, dims, options);
  model->SetTraining(false);
  model->SetRequiresGrad(false);
  LIPF_RETURN_IF_ERROR(model->LoadParameters(ckpt, in_path));

  // Parameter names owned by a Linear as its weight matrix.
  std::map<std::string, const Linear*> linear_weights;
  for (auto& [prefix, module] : model->NamedModules()) {
    if (const auto* lin = dynamic_cast<const Linear*>(module)) {
      linear_weights.emplace(prefix.empty() ? "weight" : prefix + ".weight",
                             lin);
    }
  }

  Checkpoint out;
  out.metadata = ckpt.metadata;
  out.metadata[kMetaQuantized] = kQuantSchemeInt8;

  // Reserved tensors (the fitted scaler today) ride along unchanged.
  for (const CheckpointTensor& t : ckpt.tensors) {
    if (t.name.rfind(kReservedTensorPrefix, 0) == 0) {
      out.tensors.push_back({t.name, t.data.Clone()});
    }
  }

  std::vector<std::string> names = model->ParameterNames();
  std::vector<Variable> params = model->Parameters();
  int64_t quantized = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    const Tensor& value = params[i].value();
    auto it = linear_weights.find(names[i]);
    if (it == linear_weights.end()) {
      out.tensors.push_back({names[i], value.Clone()});
      continue;
    }
    const int64_t k = it->second->in_features();
    const int64_t n = it->second->out_features();
    if (k < kQuantMinLinearDim || n < kQuantMinLinearDim) {
      // Too small for int8 to pay for its quantize/dequantize passes;
      // serve this layer fp32 (see kQuantMinLinearDim).
      out.tensors.push_back({names[i], value.Clone()});
      continue;
    }
    std::vector<int8_t> w8(static_cast<size_t>(k * n));
    Tensor scale{Shape{n}};
    QuantizeWeightPerChannel(value.data(), k, n, w8.data(), scale.data());
    // Byte-pack the int8 values into the float-only v2 container; the
    // zero-initialized tail of a partial last float keeps the file
    // content deterministic.
    Tensor packed{Shape{CeilDiv(k * n, 4)}};
    std::memcpy(packed.data(), w8.data(), w8.size());
    out.tensors.push_back({QuantWeightTensorName(names[i]),
                           std::move(packed)});
    out.tensors.push_back({QuantScaleTensorName(names[i]),
                           std::move(scale)});
    ++quantized;
  }
  if (quantized == 0) {
    return Status::InvalidArgument(
        in_path + " has no Linear weights large enough to quantize (model '" +
        model_name + "')");
  }
  return WriteCheckpoint(out_path, out);
}

}  // namespace serve
}  // namespace lipformer
