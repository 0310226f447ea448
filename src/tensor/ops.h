#ifndef LIPFORMER_TENSOR_OPS_H_
#define LIPFORMER_TENSOR_OPS_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "tensor/tensor.h"

// Forward-only tensor kernels. Autograd (src/autograd) wraps these with
// gradient rules; models never call these directly except in inference-only
// helpers. Elementwise binary ops broadcast numpy-style; MatMul broadcasts
// its batch dimensions.
//
// The hot kernels (the MatMul family, elementwise, Softmax/LogSoftmax,
// Sum/Mean/Max, and the data movers Permute/Slice/Concat/IndexSelect/Pad)
// fan out over the shared pool in common/thread_pool.h. Outputs are
// bitwise identical at every thread count: each output element is computed
// by exactly one chunk with the serial inner loops, and chunk boundaries
// are functions of shape only. Thread count: SetNumThreads / --threads /
// LIPF_NUM_THREADS (1 = the historical serial path).

namespace lipformer {

// Numpy-style broadcast of two shapes; CHECK-fails if incompatible.
Shape BroadcastShape(const Shape& a, const Shape& b);

// ---- Elementwise binary (broadcasting) ----
Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Div(const Tensor& a, const Tensor& b);
Tensor Maximum(const Tensor& a, const Tensor& b);
Tensor Minimum(const Tensor& a, const Tensor& b);

// ---- Elementwise with scalar ----
Tensor AddScalar(const Tensor& a, float s);
Tensor MulScalar(const Tensor& a, float s);
Tensor PowScalar(const Tensor& a, float p);

// ---- Elementwise unary ----
Tensor Neg(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Log(const Tensor& a);
Tensor Sqrt(const Tensor& a);
Tensor Abs(const Tensor& a);
Tensor Sin(const Tensor& a);
Tensor Cos(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Sigmoid(const Tensor& a);
Tensor Relu(const Tensor& a);
// tanh-approximation GELU (as used by GPT-style models).
Tensor Gelu(const Tensor& a);

// ---- Linear algebra ----
// All matmul variants run on the packed, cache-blocked GEMM in
// tensor/gemm.h (see DESIGN.md "Kernel architecture"). Outputs are
// bitwise identical at every thread count; versus the plain ikj reference
// they can differ in the last bits (FMA contraction), so tests compare
// with AllClose.
//
// a: [..., m, k], b: [..., k, n] -> [..., m, n]; batch dims broadcast.
// 1-d operands get the usual vector promotion (m=1 / n=1) and squeeze.
Tensor MatMul(const Tensor& a, const Tensor& b);
// a: [..., m, k], b: [..., n, k] -> [..., m, n] = a x b^T. The transpose
// is folded into the GEMM's operand packing, so no transposed copy of b
// is ever materialized (attention scores, MatMul backward).
Tensor MatMulTransB(const Tensor& a, const Tensor& b);
// a: [..., k, m], b: [..., k, n] -> [..., m, n] = a^T x b (weight
// gradients in the Linear/MatMul backward), likewise transpose-free.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);
// The pre-blocking serial ikj kernel, kept as the ground-truth reference
// the packed GEMM is validated against in tests/benches. No threading, no
// MAC accounting.
Tensor MatMulReference(const Tensor& a, const Tensor& b);

// ---- Shape ops (materializing) ----
// Reorders dimensions; perm must be a permutation of [0, dim).
Tensor Permute(const Tensor& t, const std::vector<int64_t>& perm);
// Swaps two dimensions.
Tensor Transpose(const Tensor& t, int64_t d0, int64_t d1);
// Contiguous sub-range [start, end) along dim.
Tensor Slice(const Tensor& t, int64_t dim, int64_t start, int64_t end);
// Concatenates along dim; all other dims must match.
Tensor Concat(const std::vector<Tensor>& ts, int64_t dim);
// Selects rows along dim by index (indices may repeat).
Tensor IndexSelect(const Tensor& t, int64_t dim,
                   const std::vector<int64_t>& indices);
// Zero-pads along dim: `before` zeros in front, `after` behind.
Tensor Pad(const Tensor& t, int64_t dim, int64_t before, int64_t after);

// ---- Reductions ----
Tensor Sum(const Tensor& t, int64_t dim, bool keepdim = false);
Tensor Mean(const Tensor& t, int64_t dim, bool keepdim = false);
// Returns {values, argmax-as-float} reduced along dim (keepdim).
std::pair<Tensor, Tensor> Max(const Tensor& t, int64_t dim);
float SumAll(const Tensor& t);
float MeanAll(const Tensor& t);

// ---- Data-dependent selections (no gradient of their own) ----
// scores [b, s, s] -> [b, s, 1] mask: 1 on each sample's u queries with
// the largest max - mean score (Informer's ProbSparse selection).
Tensor ProbSparseMask(const Tensor& scores, int64_t u);
// Autoformer's AutoCorrelation aggregation, q, k, v [b, s, d] -> [b, s, d]:
// each sample picks its own topk lags (tensor/ops_raw.h). When non-null,
// lags/weights receive the [b, topk] selection for the backward pass.
Tensor TimeDelayAggregate(const Tensor& q, const Tensor& k, const Tensor& v,
                          int64_t topk, std::vector<int64_t>* lags = nullptr,
                          std::vector<float>* weights = nullptr);

// Sum-reduces t (a broadcast result) back to `target` shape. Used by
// autograd to fold gradients of broadcast operands.
Tensor ReduceToShape(const Tensor& t, const Shape& target);

// Materializes t broadcast up to `shape` (the inverse data movement of
// ReduceToShape; used by autograd to expand reduced gradients without a
// Zeros + Add round trip).
Tensor BroadcastTo(const Tensor& t, const Shape& shape);

// ---- Normalization ----
// Softmax along dim with max-subtraction for stability.
Tensor Softmax(const Tensor& t, int64_t dim);
Tensor LogSoftmax(const Tensor& t, int64_t dim);

// ---- Fused kernels ----
// Attention and the Linear epilogue AddBiasAct (see DESIGN.md §7).

// Gradient of softmax(scale * t [+ mask], dim=-1) w.r.t. t given upstream
// g and the probabilities y: ((g - sum(g*y, -1)) * y) * scale, one pass
// per row (AttentionBackward's softmax step). Equals the gradient of the
// Softmax(AddConst(MulScalar(t, scale), mask), -1) chain bit for bit.
Tensor ScaledMaskedSoftmaxBackward(const Tensor& g, const Tensor& y,
                                   float scale);

// Fused multi-head attention (raw::AttentionRows): for each batch row and
// head, softmax(scale * q k^T [+ mask]) v. q [B, Sq, H*dk], k [B, Sk,
// H*dk], v [B, Sk, H*dv] -> [B, Sq, H*dv]; head h owns columns
// [h*d, (h+1)*d) of every row, so callers pass the Q/K/V projections as
// they come. mask, when non-null, is an additive [Sq, Sk] matrix. When
// probs is non-null it receives the probabilities [B, H, Sq, Sk] for the
// backward; the output is bitwise the same either way. Differs from the
// composed MatMulTransB -> MulScalar -> AddConst -> Softmax -> MatMul
// chain only in rounding, within the bounds DESIGN.md states. Charges
// B*H*Sq*Sk*(dk+dv) MACs, like that chain.
Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads, float scale, const Tensor* mask,
                 Tensor* probs = nullptr);
// Gradients {dq, dk, dv} of Attention given upstream g [B, Sq, H*dv] and
// the saved probabilities, in the forward's layouts.
std::vector<Tensor> AttentionBackward(const Tensor& g, const Tensor& q,
                                      const Tensor& k, const Tensor& v,
                                      const Tensor& probs, int64_t num_heads,
                                      float scale);

// Activations fusable into the bias-add epilogue of Linear. The tensor
// layer keeps its own enum so it stays independent of nn/; kTanh/kSigmoid
// chains stay unfused (they are not on the model's hot path).
enum class FusedAct { kNone, kRelu, kGelu };

// act(x + bias), bias 1-d broadcast over x's last dim.
Tensor AddBiasAct(const Tensor& x, const Tensor& bias, FusedAct act);
// Gradient w.r.t. the pre-activation: g * act'(x + bias), recomputing the
// pre-activation instead of storing it (bitwise-identical inputs give
// bitwise-identical act'). The bias gradient is ReduceToShape of this.
Tensor AddBiasActBackward(const Tensor& g, const Tensor& x,
                          const Tensor& bias, FusedAct act);

// ---- Testing helpers ----
bool AllClose(const Tensor& a, const Tensor& b, float atol = 1e-5f,
              float rtol = 1e-4f);
float MaxAbsDiff(const Tensor& a, const Tensor& b);

// ---- MAC (multiply-accumulate) instrumentation ----
// When enabled, the matmul variants accumulate the theoretical
// batch*m*n*k into a global counter; used by bench_util to report the
// paper's MACs column. The count is a pure function of operand shapes
// (never of data), matches the work the kernel executes, and is
// thread-safe: each call flushes its full count into an atomic once, so
// concurrent MatMuls sum exactly.
void SetMacCountingEnabled(bool enabled);
bool MacCountingEnabled();
void ResetMacCount();
int64_t MacCount();
// Adds `macs` to the counter iff counting is enabled. For matmul-shaped
// kernels living outside this file (the quantized Linear path) so MACs
// stay comparable between fp32 and int8 runs.
void AddMacCount(int64_t macs);

}  // namespace lipformer

#endif  // LIPFORMER_TENSOR_OPS_H_
