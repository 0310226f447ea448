#ifndef LIPFORMER_TENSOR_OPS_RAW_H_
#define LIPFORMER_TENSOR_OPS_RAW_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/ops.h"

// Raw "out-variant" forms of the forward tensor kernels: the exact inner
// loops of tensor/ops.cc, taking precomputed dims and caller-provided
// raw pointers instead of Tensors. The public ops in ops.cc call these
// after their shape prologue, and the AOT plan executor
// (serve/plan_exec.cc) calls them directly against arena offsets — one
// compiled loop per kernel, so the two paths are bitwise identical by
// construction, not by testing alone.
//
// All functions run on the shared thread pool with the same grains as the
// public ops; chunk boundaries are functions of shape only, so outputs
// are bitwise identical at every thread count (see tensor/ops.h).
// Pointers must not alias outputs with inputs.

namespace lipformer {
namespace raw {

enum class Bin : int32_t { kAdd, kSub, kMul, kDiv, kMax, kMin };
enum class Un : int32_t {
  kAddScalar,
  kMulScalar,
  kPowScalar,
  kNeg,
  kExp,
  kLog,
  kSqrt,
  kAbs,
  kSin,
  kCos,
  kTanh,
  kSigmoid,
  kRelu,
  kGelu,
};

// tanh-approximation GELU forward. Deliberately a single out-of-line
// definition (ops.cc, noinline): the standalone Gelu kernel, the fused
// AddBiasAct epilogue, the GEMM epilogue and the fused elementwise chain
// all call the one compiled copy, so no caller can be contracted (FMA)
// differently from another — gelu outputs stay bitwise identical across
// fused and unfused paths by construction.
float GeluFwd(float x);

// The single source of scalar semantics for Bin/Un: every elementwise
// kernel — the dispatch tables below, the GEMM epilogue and the fused
// chain interpreter — computes each element through these, so fused and
// unfused paths share one definition per operation. Each case is either a
// single IEEE operation or an opaque call (libm / GeluFwd), which leaves
// the compiler nothing to contract across; inlining with a compile-time
// `op` folds to the bare operation.
inline float ApplyBin(Bin op, float x, float y) {
  switch (op) {
    case Bin::kAdd:
      return x + y;
    case Bin::kSub:
      return x - y;
    case Bin::kMul:
      return x * y;
    case Bin::kDiv:
      return x / y;
    case Bin::kMax:
      return std::max(x, y);
    case Bin::kMin:
      return std::min(x, y);
  }
  return 0.0f;
}

float ApplyUnSlow(Un op, float s, float x);  // out-of-line libm cases

inline float ApplyUn(Un op, float s, float x) {
  switch (op) {
    case Un::kAddScalar:
      return x + s;
    case Un::kMulScalar:
      return x * s;
    case Un::kNeg:
      return -x;
    case Un::kSqrt:
      return std::sqrt(x);
    case Un::kAbs:
      return std::fabs(x);
    case Un::kRelu:
      return x > 0.0f ? x : 0.0f;
    default:
      return ApplyUnSlow(op, s, x);
  }
}

// Same-shape elementwise binary: out[i] = op(a[i], b[i]).
void BinarySame(Bin op, const float* a, const float* b, float* out,
                int64_t n);

// Broadcast elementwise binary over the odometer walk: `oshape` is the
// output shape, `sa`/`sb` the broadcast strides of a/b relative to it
// (all length nd), numel the output element count.
void BinaryBcast(Bin op, const float* a, const float* b, float* out,
                 const int64_t* oshape, const int64_t* sa, const int64_t* sb,
                 int64_t nd, int64_t numel);

// Elementwise unary with optional scalar operand (AddScalar/MulScalar/
// PowScalar read `s`; the rest ignore it).
void Unary(Un op, float s, const float* a, float* out, int64_t n);

// Permute gather: out[i] = in[dot(multi_index(i, oshape), gather)].
void PermuteCopy(const float* in, float* out, const int64_t* oshape,
                 const int64_t* gather, int64_t nd, int64_t numel);

// Contiguous slice along the (outer, mid, inner) split: copies
// mid range [start, start+len) per outer block.
void SliceCopy(const float* in, float* out, int64_t outer, int64_t mid,
               int64_t inner, int64_t start, int64_t len);

// Copies one concat operand (mid slots wide) into an output whose concat
// dim is mid_out slots wide, at slot offset `offset`.
void ConcatCopyOne(const float* in, float* out, int64_t outer, int64_t mid,
                   int64_t mid_out, int64_t offset, int64_t inner);

// Gather along the (outer, mid, inner) split: output slot s of every
// outer block copies input row indices[s] (indices may repeat; the caller
// has checked them against mid).
void IndexSelectCopy(const float* in, float* out, int64_t outer, int64_t mid,
                     int64_t inner, const int64_t* indices, int64_t nsel);

// Sum over the mid dim of the (outer, mid, inner) split.
void SumDim(const float* in, float* out, int64_t outer, int64_t mid,
            int64_t inner);

// Softmax / log-softmax over the mid dim (max-subtracted).
void SoftmaxDim(const float* in, float* out, int64_t outer, int64_t mid,
                int64_t inner);
void LogSoftmaxDim(const float* in, float* out, int64_t outer, int64_t mid,
                   int64_t inner);

// Fused softmax(scale * x [+ mask]) over rows of width mid; mask (when
// non-null) is [sq, mid] and row r uses mask row r % sq. Compiled with
// fp-contract off (see ops.cc) so it stays bitwise equal to the unfused
// chain.
void ScaledMaskedSoftmaxRows(const float* in, float* out, int64_t rows,
                             int64_t mid, float scale, const float* mask,
                             int64_t sq);

// ---- Vectorized exp ----
// One 16-lane float vector (GCC vector extension): a zmm register under
// AVX-512, two ymm under AVX2, four xmm on the portable baseline. Every
// operation on it is lane-wise IEEE arithmetic, so a lane's result never
// depends on its neighbours, on its position, or on how many lanes hold
// live data — a tail handled by padding a vector gets the same bits as a
// full vector.
inline constexpr int64_t kVecLanes = 16;
typedef float VecF __attribute__((vector_size(64)));
typedef uint32_t VecU __attribute__((vector_size(64)));

// v = exp(v) lane by lane, inlined so callers' loops stay vectorized (an
// opaque libm call per element is what blocks that). Cody–Waite range
// reduction x = n·ln2 + r with |r| <= ln2/2 (ln2 split into an exact
// 9-bit head and a tail), the Cephes expf polynomial
// 1 + r + r²·P5(r) on r, and 2^n assembled in the exponent bits. n comes
// from the 1.5·2^23 rounding trick, so no float→int conversion can
// overflow. Edges: x < kExpLo (ln FLT_MIN; e.g. the -1e9 of a causal
// mask, or -inf) gives exactly +0; x > kExpHi (just below 127.5·ln2, so
// n <= 127) gives +inf; NaN gives NaN; exp(0) is exactly 1. DESIGN.md
// ("Fused attention") states the max-ulp bound against std::exp that
// AttentionKernelTest enforces.
inline constexpr float kExpLo = -87.33654475f;
inline constexpr float kExpHi = 88.3762550f;

// In place: a by-value VecF parameter or return draws GCC's ABI note on
// targets without AVX-512 (the portable build), even when inlined.
inline __attribute__((always_inline)) void ExpVec(VecF& v) {
  const VecF x = v;
  const VecF zero = {};
  const VecF magic = zero + 12582912.0f;  // 1.5 * 2^23
  const VecF t = x * 1.44269504088896341f + magic;
  const VecF n = t - magic;  // round(x / ln2), exact
  VecF r = x - n * 0.693359375f;
  r = r - n * -2.12194440e-4f;
  VecF p = r * 1.9875691500e-4f + 1.3981999507e-3f;
  p = p * r + 8.3334519073e-3f;
  p = p * r + 4.1665795894e-2f;
  p = p * r + 1.6666665459e-1f;
  p = p * r + 5.0000001201e-1f;
  const VecF e = p * (r * r) + r + 1.0f;
  // 2^n: n sits in t's low mantissa bits. Unsigned lanes keep the bit
  // arithmetic defined for every input, NaN and ±inf included.
  const VecU bits = ((VecU)t - (VecU)magic + 127u) << 23;
  VecF y = e * (VecF)bits;
  y = x < zero + kExpLo ? zero : y;
  y = x > zero + kExpHi ? zero + __builtin_inff() : y;
  v = y;
}

// Fused attention: out = softmax(scale · q kᵀ [+ mask]) · v for every
// (batch, head) slice. q is [batch, sq, heads·dk] and k [batch, sk,
// heads·dk]; v is [batch, sk, heads·dv] and out [batch, sq, heads·dv];
// head h reads and writes its own column block of every row, so the head
// split/merge transposes of a multi-head layer never materialize. mask
// (when non-null) is an additive [sq, sk] matrix shared by every slice.
// probs (when non-null) receives the probabilities [batch, heads, sq,
// sk] — the autograd rule's saved state; writing them changes no output
// bit.
//
// Layout and blocking: each work item is one slice and a block of up to
// kVecLanes queries, one query per vector lane. The item keeps its
// scores as [sk][kVecLanes] on the stack, so the score dot products, the
// softmax (max, ExpVec, sum, normalize) and the probability-weighted sum
// over v are all lane-wise vector loops over keys; no horizontal
// reduction, no scalar remainder loop (padding lanes hold zeros and are
// never stored). A query's result therefore depends only on its own q
// row and its slice's k, v and mask — not on its lane, its block, the
// batch it shares, the thread count, or whether probs is written — which
// is what makes batched ≡ serial, plan ≡ module and taped ≡ untaped hold
// by construction. Allocates nothing; sk <= kAttentionMaxKeys bounds the
// stack block (256 KiB).
inline constexpr int64_t kAttentionMaxKeys = 4096;
void AttentionRows(const float* q, const float* k, const float* v,
                   float* out, float* probs, int64_t batch, int64_t heads,
                   int64_t sq, int64_t sk, int64_t dk, int64_t dv,
                   float scale, const float* mask);

// Informer's ProbSparse query selection over attention scores [b, s, s]:
// mask [b, s] is 1 on the u rows of each sample with the largest
// max - mean sparsity measure and 0 elsewhere.
void ProbSparseMaskRows(const float* scores, float* mask, int64_t b,
                        int64_t s, int64_t u);

// Autoformer's time-delay aggregation over q, k, v [b, s, d], each sample
// on its own: lag scores mean_c(ifft(fft(q) * conj(fft(k)))) per lag, the
// topk best lags, softmax weights over their scores, and
// out[t] = sum_i w_i * v[(t + lag_i) % s]. When non-null, lags and
// weights ([b, topk]) receive each sample's selection. Defined in
// tensor/fft.cc.
void TimeDelayAggregateRows(const float* q, const float* k, const float* v,
                            float* out, int64_t b, int64_t s, int64_t d,
                            int64_t topk, int64_t* lags, float* weights);

// act(x + bias) over rows of width c.
void AddBiasActRows(const float* x, const float* bias, float* out,
                    int64_t rows, int64_t c, FusedAct act);

// a [rows, c] (-|+) b broadcast over groups of t rows (the [B, T, C] vs
// [B, 1, C] instance-norm shift): b row index is r / t.
void BroadcastMidRows(bool sub_op, const float* a, const float* b,
                      float* out, int64_t rows, int64_t t, int64_t c);

// GEMM epilogue over one cache-hot region of C: for rows [r0, r0+nrows)
// and columns [j0, j0+ncols) of a row-major [*, ldc] matrix, applies
// act(c + bias[j]) (bias may be null) and then the residual binary
// `res_op` against `residual` read at the same offsets as C (residual may
// be null; res_is_lhs puts it on the binary's left). Element semantics
// are exactly AddBiasActRows followed by BinarySame — same expressions,
// same GeluFwd — so a GEMM with this epilogue is bitwise identical to the
// unfused op sequence. Serial: the packed GEMM (tensor/gemm.cc) calls it
// from inside its own ParallelFor chunks.
void GemmEpilogueRegion(float* c, int64_t ldc, int64_t r0, int64_t nrows,
                        int64_t j0, int64_t ncols, const float* bias,
                        int32_t act, const float* residual, int32_t res_op,
                        bool res_is_lhs);

// One step of a fused elementwise chain (kFusedChain plan ops). The chain
// kernel decomposes the output into rows x w elements and streams a value
// v through the step list per element: unary steps apply ApplyUn, binary
// steps combine v with `other[row_base[r] + j * inner_step]` via ApplyBin
// (v is the left operand when prev_is_a). The per-row base table is
// precomputed and numerically verified by the plan compiler
// (serve/plan.cc), which is what lets one table-driven loop reproduce
// same-shape, broadcast-mid and strided-broadcast operands alike.
struct ChainStep {
  bool is_binary = false;
  bool prev_is_a = true;
  int32_t sub = 0;   // Bin when binary, Un otherwise
  float scalar = 0.0f;
  const float* other = nullptr;
  const int64_t* row_base = nullptr;
  int64_t inner_step = 0;
};

// out[r * w + j] = chain(in[r * w + j]); one read-modify-write sweep over
// the whole run of fused ops. Each element's value passes through the
// identical scalar operations the unfused kernels apply (ApplyBin /
// ApplyUn / GeluFwd), and the runtime step dispatch is an optimization
// barrier between steps, so results are bitwise identical to running the
// ops separately.
void FusedChainRows(const float* in, float* out, int64_t rows, int64_t w,
                    const ChainStep* steps, int64_t nsteps);

}  // namespace raw
}  // namespace lipformer

#endif  // LIPFORMER_TENSOR_OPS_RAW_H_
