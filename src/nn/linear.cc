#include "nn/linear.h"

#include <cmath>
#include <cstring>

#include "common/thread_pool.h"
#include "tensor/op_trace.h"
#include "tensor/ops.h"
#include "tensor/ops_raw.h"
#include "tensor/storage_pool.h"

namespace lipformer {

namespace {
inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }
}  // namespace

// The dequantize pass (with its optional fused epilogue) is compiled with
// fp-contract off: the epilogue's bias add must see the dequantized value
// already rounded to fp32 — exactly what the unfused path stores to
// memory — and contraction into an FMA would skip that rounding and break
// the plan compiler's bitwise fused == unfused gate. The plain dequant
// expression has no mul+add pair, so this costs the unfused path nothing.
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")
namespace {

void DequantRowsEpilogue(const int32_t* c32, const float* row_scale,
                         const float* col_scale, float* y, int64_t m,
                         int64_t out, const GemmEpilogue* epi) {
  const bool fused = epi != nullptr && epi->enabled();
  ParallelFor(m, /*grain=*/CeilDiv(8192, out), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      const float sr = row_scale[r];
      const int32_t* crow = c32 + r * out;
      float* yrow = y + r * out;
      for (int64_t j = 0; j < out; ++j) {
        yrow[j] = static_cast<float>(crow[j]) * (sr * col_scale[j]);
      }
      if (fused) {
        raw::GemmEpilogueRows(y, out, r, 1, epi->bias, epi->act,
                              epi->residual, epi->res_op, epi->res_is_lhs);
      }
    }
  });
}

}  // namespace
#pragma GCC pop_options

void QuantLinearForward(const float* x, int64_t m, int64_t in_features,
                        int64_t out_features, const Int8PackedWeight& packed,
                        const float* col_scale, int8_t* a8, float* row_scale,
                        int32_t* c32, float* y, const GemmEpilogue* epi) {
  const int64_t in = in_features;
  const int64_t out = out_features;
  // Row-quantize the activations.
  ParallelFor(m, /*grain=*/CeilDiv(4096, in), [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      row_scale[r] = QuantizeRowDynamic(x + r * in, in, a8 + r * in);
    }
  });

  // Exact int32 GEMM, then dequantize with the separable scale
  // row_scale[r] * col_scale[j] (+ the optional fused epilogue).
  Int8GemmBlocked(a8, packed, m, c32);
  AddMacCount(m * out * in);
  DequantRowsEpilogue(c32, row_scale, col_scale, y, m, out, epi);
}

Linear::Linear(int64_t in_features, int64_t out_features, Rng& rng, bool bias)
    : in_features_(in_features),
      out_features_(out_features),
      has_bias_(bias) {
  LIPF_CHECK_GT(in_features, 0);
  LIPF_CHECK_GT(out_features, 0);
  const float bound = 1.0f / std::sqrt(static_cast<float>(in_features));
  weight_ = RegisterParameter(
      "weight", Variable(Tensor::RandUniform(Shape{in_features, out_features},
                                             rng, -bound, bound)));
  if (has_bias_) {
    bias_ = RegisterParameter(
        "bias", Variable(Tensor::RandUniform(Shape{out_features}, rng, -bound,
                                             bound)));
  }
}

Variable Linear::Forward(const Variable& x) const {
  return Forward(x, Activation::kNone);
}

Status Linear::AttachQuantizedWeights(const std::vector<int8_t>& w8,
                                      const Tensor& scale) {
  if (scale.numel() != out_features_) {
    return Status::InvalidArgument(
        "quantized scale has " + std::to_string(scale.numel()) +
        " entries, Linear has " + std::to_string(out_features_) +
        " output features");
  }
  if (static_cast<int64_t>(w8.size()) != in_features_ * out_features_) {
    return Status::InvalidArgument(
        "quantized weight has " + std::to_string(w8.size()) +
        " entries, Linear expects " +
        std::to_string(in_features_ * out_features_));
  }
  auto state = std::make_unique<QuantState>();
  state->packed = PackInt8Weight(w8.data(), in_features_, out_features_);
  state->scale = scale.Clone();
  // Keep the fp32 parameter in sync so a grad-enabled forward (or a
  // re-save of the module) sees the same function the int8 path computes.
  DequantizeWeightPerChannel(w8.data(), scale.data(), in_features_,
                             out_features_,
                             weight_.mutable_value().data());
  quant_ = std::move(state);
  return Status::OK();
}

Tensor Linear::QuantizedMatMul(const Tensor& x) const {
  const int64_t in = in_features_;
  const int64_t out = out_features_;
  const int64_t m = x.numel() / in;
  Shape out_shape = x.shape();
  out_shape.back() = out;
  Tensor y = Tensor::Empty(std::move(out_shape));
  if (m == 0) return y;

  // Scratch from the pool: int8 rows live in reinterpreted float storage
  // (4 bytes per float), row scales and the int32 accumulator (same width
  // as float) in their own blocks.
  Storage a8_storage = Storage::Acquire(CeilDiv(m * in, 4));
  Storage row_scale_storage = Storage::Acquire(m);
  Storage c32_storage = Storage::Acquire(m * out);
  QuantLinearForward(x.data(), m, in, out, quant_->packed,
                     quant_->scale.data(),
                     reinterpret_cast<int8_t*>(a8_storage.data()),
                     row_scale_storage.data(),
                     reinterpret_cast<int32_t*>(c32_storage.data()),
                     y.data());
  if (trace::Active()) {
    trace::RecordQuantLinear(x, quant_->scale, y, m, in, out,
                             &quant_->packed);
  }
  return y;
}

Variable Linear::Forward(const Variable& x, Activation act) const {
  LIPF_CHECK_EQ(x.size(-1), in_features_)
      << "Linear expects last dim " << in_features_;
  const bool use_quant = quant_ != nullptr && !training() && !GradEnabled();
  Variable y = use_quant ? Variable(QuantizedMatMul(x.value()))
                         : MatMul(x, weight_);
  if (!has_bias_) return ApplyActivation(y, act);
  switch (act) {
    case Activation::kNone:
      return AddBiasAct(y, bias_, FusedAct::kNone);
    case Activation::kRelu:
      return AddBiasAct(y, bias_, FusedAct::kRelu);
    case Activation::kGelu:
      return AddBiasAct(y, bias_, FusedAct::kGelu);
    case Activation::kTanh:
    case Activation::kSigmoid:
      break;
  }
  return ApplyActivation(AddBiasAct(y, bias_, FusedAct::kNone), act);
}

Mlp::Mlp(std::vector<int64_t> dims, Rng& rng, Activation activation)
    : activation_(activation) {
  LIPF_CHECK_GE(dims.size(), 2u);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.push_back(std::make_unique<Linear>(dims[i], dims[i + 1], rng));
    RegisterModule("layer" + std::to_string(i), layers_.back().get());
  }
}

Variable Mlp::Forward(const Variable& x) const {
  Variable h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const bool last = i + 1 == layers_.size();
    h = layers_[i]->Forward(h, last ? Activation::kNone : activation_);
  }
  return h;
}

}  // namespace lipformer
