#ifndef LIPFORMER_AUTOGRAD_OPS_H_
#define LIPFORMER_AUTOGRAD_OPS_H_

#include <utility>
#include <vector>

#include "autograd/variable.h"
#include "tensor/ops.h"

// Differentiable ops over Variables. Each op computes its value with the
// forward kernels from tensor/ops.h and records a closure implementing the
// corresponding vector-Jacobian product. Overloads share names with the
// Tensor kernels; overload resolution picks by argument type.
//
// Inference fast path: when gradients are off (NoGradGuard) or no input
// requires grad, every op returns a plain Variable WITHOUT calling
// Variable::MakeNode — no backward closure is built and no parent
// reference is captured, so intermediate tensors return to the storage
// pool the moment their Variable goes out of scope.

namespace lipformer {

// ---- Elementwise binary (broadcasting) ----
Variable Add(const Variable& a, const Variable& b);
Variable Sub(const Variable& a, const Variable& b);
Variable Mul(const Variable& a, const Variable& b);
Variable Div(const Variable& a, const Variable& b);

// ---- Scalar ----
Variable AddScalar(const Variable& a, float s);
Variable MulScalar(const Variable& a, float s);
Variable PowScalar(const Variable& a, float p);

// ---- Unary ----
Variable Neg(const Variable& a);
Variable Exp(const Variable& a);
Variable Log(const Variable& a);
Variable Sqrt(const Variable& a);
Variable Abs(const Variable& a);
Variable Tanh(const Variable& a);
Variable Sigmoid(const Variable& a);
Variable Relu(const Variable& a);
Variable Gelu(const Variable& a);

// ---- Linear algebra ----
Variable MatMul(const Variable& a, const Variable& b);
// a [..., m, k] x b^T for b [..., n, k] -> [..., m, n]. Forward and
// backward are transpose-free (the fold happens inside the packed GEMM),
// which is what attention score computation uses.
Variable MatMulTransB(const Variable& a, const Variable& b);
// a^T x b for a [..., k, m], b [..., k, n] -> [..., m, n].
Variable MatMulTransA(const Variable& a, const Variable& b);

// ---- Shape ----
Variable Reshape(const Variable& a, Shape new_shape);
Variable Permute(const Variable& a, const std::vector<int64_t>& perm);
Variable Transpose(const Variable& a, int64_t d0, int64_t d1);
Variable Slice(const Variable& a, int64_t dim, int64_t start, int64_t end);
Variable Concat(const std::vector<Variable>& vs, int64_t dim);
// Backward scatter-adds into the selected rows (indices may repeat).
Variable IndexSelect(const Variable& a, int64_t dim,
                     const std::vector<int64_t>& indices);

// ---- Reductions ----
Variable Sum(const Variable& a, int64_t dim, bool keepdim = false);
Variable Mean(const Variable& a, int64_t dim, bool keepdim = false);
// Scalar (shape {}) outputs.
Variable SumAll(const Variable& a);
Variable MeanAll(const Variable& a);

// ---- Normalization ----
Variable Softmax(const Variable& a, int64_t dim);
Variable LogSoftmax(const Variable& a, int64_t dim);

// Autoformer's time-delay aggregation (tensor/ops.h). The lag selection
// and its weights are discrete decisions on q and k, so only v receives a
// gradient: the rolled, weighted g.
Variable TimeDelayAggregate(const Variable& q, const Variable& k,
                            const Variable& v, int64_t topk);

// Elementwise product with a constant (non-differentiated) mask/tensor.
Variable MulConst(const Variable& a, const Tensor& c);
// Elementwise sum with a constant tensor (broadcasting).
Variable AddConst(const Variable& a, const Tensor& c);

// ---- Fused ops (single-pass kernels from tensor/ops.h) ----
// softmax(scale * a [+ mask], dim=-1); mask is a constant 2-d additive
// mask (or null). Value and gradient are bitwise identical to the
// Softmax(AddConst(MulScalar(a, scale), mask), -1) chain.
Variable ScaledMaskedSoftmax(const Variable& a, float scale,
                             const Tensor* mask);
// Fused multi-head attention (tensor/ops.h Attention): q [B, Sq, H*dk],
// k [B, Sk, H*dk], v [B, Sk, H*dv] -> [B, Sq, H*dv]; mask is a constant
// additive [Sq, Sk] matrix (or null). The taped forward runs the same
// kernel, also writing the probabilities the backward needs, so taped
// and untaped outputs are bitwise equal.
Variable Attention(const Variable& q, const Variable& k, const Variable& v,
                   int64_t num_heads, float scale, const Tensor* mask);
// act(a + bias) with bias broadcast over the last dim — the Linear
// epilogue. The backward recomputes the pre-activation from the saved
// inputs instead of storing it.
Variable AddBiasAct(const Variable& a, const Variable& bias, FusedAct act);
// a [B, T, C] -/+ b [B, 1, C]: instance-norm shift and unshift without
// the generic odometer broadcast.
Variable SubBroadcastMid(const Variable& a, const Variable& b);
Variable AddBroadcastMid(const Variable& a, const Variable& b);

// ---- Operator sugar ----
inline Variable operator+(const Variable& a, const Variable& b) {
  return Add(a, b);
}
inline Variable operator-(const Variable& a, const Variable& b) {
  return Sub(a, b);
}
inline Variable operator*(const Variable& a, const Variable& b) {
  return Mul(a, b);
}
inline Variable operator/(const Variable& a, const Variable& b) {
  return Div(a, b);
}

}  // namespace lipformer

#endif  // LIPFORMER_AUTOGRAD_OPS_H_
