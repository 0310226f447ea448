#include "tensor/ops.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/op_trace.h"
#include "tensor/ops_raw.h"

namespace lipformer {

namespace {

// Global MAC counter. Kernels run on the shared thread pool and callers
// may issue kernels from several threads, so both the flag and the count
// are atomics; parallel MatMul chunks accumulate locally and flush once
// per chunk (see AddMacs).
std::atomic<bool> g_mac_enabled{false};
std::atomic<int64_t> g_mac_count{0};

inline bool MacsEnabled() {
  return g_mac_enabled.load(std::memory_order_relaxed);
}

inline void AddMacs(int64_t macs) {
  g_mac_count.fetch_add(macs, std::memory_order_relaxed);
}

// Minimum work per chunk before a kernel fans out to the pool; keeps tiny
// tensors on the exact serial path with zero dispatch overhead. Chunk
// boundaries derived from these are functions of shape only, so outputs
// stay bitwise identical at every thread count.
constexpr int64_t kElementwiseGrain = 8192;  // elements
constexpr int64_t kReductionGrain = 8192;    // accumulated scalars
constexpr int64_t kCopyGrain = 16384;        // copied elements

// Chunk grain for kernels whose per-index cost is `work_per_index`.
inline int64_t GrainFor(int64_t total_grain, int64_t work_per_index) {
  return std::max<int64_t>(1, total_grain / std::max<int64_t>(1, work_per_index));
}

// Expands `shape` to `ndim` dims by prepending 1s.
Shape PadShape(const Shape& shape, int64_t ndim) {
  Shape out(ndim, 1);
  const int64_t off = ndim - static_cast<int64_t>(shape.size());
  for (size_t i = 0; i < shape.size(); ++i) out[off + i] = shape[i];
  return out;
}

// Row-major strides for a shape, with 0 stride for broadcast (size-1) dims
// relative to the output shape.
Shape BroadcastStrides(const Shape& shape, const Shape& out_shape) {
  const int64_t nd = static_cast<int64_t>(out_shape.size());
  Shape padded = PadShape(shape, nd);
  Shape strides(nd, 0);
  int64_t s = 1;
  for (int64_t i = nd - 1; i >= 0; --i) {
    if (padded[i] == 1 && out_shape[i] != 1) {
      strides[i] = 0;
    } else {
      strides[i] = s;
    }
    s *= padded[i];
  }
  return strides;
}

// Decomposes linear index `i` over `shape` and returns the dot product of
// the multi-index with `strides` (the broadcast offset of element i); also
// fills `idx` with the multi-index when non-null.
int64_t StridedOffset(int64_t i, const Shape& shape, const Shape& strides,
                      std::vector<int64_t>* idx) {
  int64_t off = 0;
  for (int64_t d = static_cast<int64_t>(shape.size()) - 1; d >= 0; --d) {
    const int64_t id = i % shape[d];
    i /= shape[d];
    off += id * strides[d];
    if (idx != nullptr) (*idx)[d] = id;
  }
  return off;
}

// Raw-pointer variant of StridedOffset for the out-variant kernels.
int64_t StridedOffsetRaw(int64_t i, const int64_t* shape,
                         const int64_t* strides, int64_t nd, int64_t* idx) {
  int64_t off = 0;
  for (int64_t d = nd - 1; d >= 0; --d) {
    const int64_t id = i % shape[d];
    i /= shape[d];
    off += id * strides[d];
    if (idx != nullptr) idx[d] = id;
  }
  return off;
}

// Splits shape into (outer, dim_size, inner) around `dim` for reductions.
void SplitAt(const Shape& shape, int64_t dim, int64_t* outer, int64_t* mid,
             int64_t* inner) {
  *outer = 1;
  *inner = 1;
  for (int64_t i = 0; i < dim; ++i) *outer *= shape[i];
  *mid = shape[dim];
  for (size_t i = dim + 1; i < shape.size(); ++i) *inner *= shape[i];
}

int64_t NormalizeDim(int64_t dim, int64_t ndim) {
  if (dim < 0) dim += ndim;
  LIPF_CHECK_GE(dim, 0);
  LIPF_CHECK_LT(dim, ndim);
  return dim;
}

// tanh-approximation GELU derivative; the forward lives out-of-line in
// raw::GeluFwd (ops_raw.h) so every caller — standalone Gelu, the fused
// AddBiasAct epilogue, the GEMM epilogue, the fused chain — shares one
// compiled copy and fused and unfused paths agree bit for bit.
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)

inline float GeluGrad(float x) {
  const float inner = kGeluC * (x + 0.044715f * x * x * x);
  const float th = std::tanh(inner);
  const float sech2 = 1.0f - th * th;
  const float dinner = kGeluC * (1.0f + 3.0f * 0.044715f * x * x);
  return 0.5f * (1.0f + th) + 0.5f * x * sech2 * dinner;
}

}  // namespace

// ---- Raw out-variant kernels (tensor/ops_raw.h) ----
// These hold the actual loops; the public ops below are shape prologues
// around them, and the plan executor (serve/plan_exec.cc) calls them with
// arena pointers. One compiled loop per kernel keeps module and plan
// paths bitwise identical by construction.

namespace raw {

// One compiled copy for every caller (noinline): inlining into different
// loop contexts could let the compiler contract the internal mul/add
// pairs differently per call site, breaking the bitwise fused == unfused
// guarantee gelu-activated paths rely on.
__attribute__((noinline)) float GeluFwd(float x) {
  const float inner = kGeluC * (x + 0.044715f * x * x * x);
  return 0.5f * x * (1.0f + std::tanh(inner));
}

// Out-of-line cases of ApplyUn (ops_raw.h): each is an opaque libm call
// (or GeluFwd), so there is nothing for a caller to contract across.
float ApplyUnSlow(Un op, float s, float x) {
  switch (op) {
    case Un::kPowScalar:
      return std::pow(x, s);
    case Un::kExp:
      return std::exp(x);
    case Un::kLog:
      return std::log(x);
    case Un::kSin:
      return std::sin(x);
    case Un::kCos:
      return std::cos(x);
    case Un::kTanh:
      return std::tanh(x);
    case Un::kSigmoid:
      return 1.0f / (1.0f + std::exp(-x));
    case Un::kGelu:
      return GeluFwd(x);
    default:
      break;
  }
  LIPF_CHECK(false) << "ApplyUnSlow: op has an inline fast path";
  return 0.0f;
}

namespace {

template <typename F>
void BinarySameT(const float* pa, const float* pb, float* po, int64_t n,
                 F f) {
  ParallelFor(n, kElementwiseGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      po[i] = f(pa[i], pb[i]);
    }
  });
}

template <typename F>
void BinaryBcastT(const float* pa, const float* pb, float* po,
                  const int64_t* oshape, const int64_t* sa,
                  const int64_t* sb, int64_t nd, int64_t numel, F f) {
  ParallelFor(numel, kElementwiseGrain, [&](int64_t begin, int64_t end) {
    // Seed the odometer at the chunk's first element, then walk serially.
    std::vector<int64_t> idx(nd, 0);
    int64_t oa = StridedOffsetRaw(begin, oshape, sa, nd, idx.data());
    int64_t ob = StridedOffsetRaw(begin, oshape, sb, nd, nullptr);
    for (int64_t i = begin; i < end; ++i) {
      po[i] = f(pa[oa], pb[ob]);
      // Increment the multi-index (odometer).
      for (int64_t d = nd - 1; d >= 0; --d) {
        ++idx[d];
        oa += sa[d];
        ob += sb[d];
        if (idx[d] < oshape[d]) break;
        idx[d] = 0;
        oa -= sa[d] * oshape[d];
        ob -= sb[d] * oshape[d];
      }
    }
  });
}

template <typename F>
void UnaryT(const float* pa, float* po, int64_t n, F f) {
  ParallelFor(n, kElementwiseGrain, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) po[i] = f(pa[i]);
  });
}

// Both dispatches route through ApplyBin/ApplyUn (ops_raw.h) with a
// compile-time op, which folds each lambda to the bare operation — the
// fused chain interpreter shares the same definitions with a runtime op,
// so there is exactly one source of scalar semantics per operation.
template <typename F>
void BinaryDispatch(Bin op, F run) {
  switch (op) {
    case Bin::kAdd:
      run([](float x, float y) { return ApplyBin(Bin::kAdd, x, y); });
      return;
    case Bin::kSub:
      run([](float x, float y) { return ApplyBin(Bin::kSub, x, y); });
      return;
    case Bin::kMul:
      run([](float x, float y) { return ApplyBin(Bin::kMul, x, y); });
      return;
    case Bin::kDiv:
      run([](float x, float y) { return ApplyBin(Bin::kDiv, x, y); });
      return;
    case Bin::kMax:
      run([](float x, float y) { return ApplyBin(Bin::kMax, x, y); });
      return;
    case Bin::kMin:
      run([](float x, float y) { return ApplyBin(Bin::kMin, x, y); });
      return;
  }
}

template <typename F>
void UnaryDispatch(Un op, float s, F run) {
  switch (op) {
    case Un::kAddScalar:
      run([s](float x) { return ApplyUn(Un::kAddScalar, s, x); });
      return;
    case Un::kMulScalar:
      run([s](float x) { return ApplyUn(Un::kMulScalar, s, x); });
      return;
    case Un::kPowScalar:
      run([s](float x) { return ApplyUn(Un::kPowScalar, s, x); });
      return;
    case Un::kNeg:
      run([](float x) { return ApplyUn(Un::kNeg, 0.0f, x); });
      return;
    case Un::kExp:
      run([](float x) { return ApplyUn(Un::kExp, 0.0f, x); });
      return;
    case Un::kLog:
      run([](float x) { return ApplyUn(Un::kLog, 0.0f, x); });
      return;
    case Un::kSqrt:
      run([](float x) { return ApplyUn(Un::kSqrt, 0.0f, x); });
      return;
    case Un::kAbs:
      run([](float x) { return ApplyUn(Un::kAbs, 0.0f, x); });
      return;
    case Un::kSin:
      run([](float x) { return ApplyUn(Un::kSin, 0.0f, x); });
      return;
    case Un::kCos:
      run([](float x) { return ApplyUn(Un::kCos, 0.0f, x); });
      return;
    case Un::kTanh:
      run([](float x) { return ApplyUn(Un::kTanh, 0.0f, x); });
      return;
    case Un::kSigmoid:
      run([](float x) { return ApplyUn(Un::kSigmoid, 0.0f, x); });
      return;
    case Un::kRelu:
      run([](float x) { return ApplyUn(Un::kRelu, 0.0f, x); });
      return;
    case Un::kGelu:
      run([](float x) { return ApplyUn(Un::kGelu, 0.0f, x); });
      return;
  }
}

}  // namespace

void BinarySame(Bin op, const float* a, const float* b, float* out,
                int64_t n) {
  BinaryDispatch(op, [&](auto f) { BinarySameT(a, b, out, n, f); });
}

void BinaryBcast(Bin op, const float* a, const float* b, float* out,
                 const int64_t* oshape, const int64_t* sa, const int64_t* sb,
                 int64_t nd, int64_t numel) {
  BinaryDispatch(op, [&](auto f) {
    BinaryBcastT(a, b, out, oshape, sa, sb, nd, numel, f);
  });
}

void Unary(Un op, float s, const float* a, float* out, int64_t n) {
  UnaryDispatch(op, s, [&](auto f) { UnaryT(a, out, n, f); });
}

void PermuteCopy(const float* pi, float* po, const int64_t* oshape,
                 const int64_t* gather, int64_t nd, int64_t numel) {
  // Gather parallelized over output positions; chunks write disjoint
  // ranges of po, so the result is chunking-independent.
  ParallelFor(numel, kCopyGrain, [&](int64_t begin, int64_t end) {
    // Seed the odometer at the chunk's first element, then walk serially.
    std::vector<int64_t> idx(nd, 0);
    int64_t src = StridedOffsetRaw(begin, oshape, gather, nd, idx.data());
    for (int64_t i = begin; i < end; ++i) {
      po[i] = pi[src];
      for (int64_t d = nd - 1; d >= 0; --d) {
        ++idx[d];
        src += gather[d];
        if (idx[d] < oshape[d]) break;
        idx[d] = 0;
        src -= gather[d] * oshape[d];
      }
    }
  });
}

void SliceCopy(const float* pi, float* po, int64_t outer, int64_t mid,
               int64_t inner, int64_t start, int64_t len) {
  ParallelFor(outer, GrainFor(kCopyGrain, len * inner),
              [&](int64_t o_begin, int64_t o_end) {
                for (int64_t o = o_begin; o < o_end; ++o) {
                  const float* src = pi + (o * mid + start) * inner;
                  float* dst = po + o * len * inner;
                  std::memcpy(dst, src,
                              sizeof(float) * static_cast<size_t>(len * inner));
                }
              });
}

void ConcatCopyOne(const float* pi, float* po, int64_t outer, int64_t mid,
                   int64_t mid_out, int64_t offset, int64_t inner) {
  ParallelFor(outer, GrainFor(kCopyGrain, mid * inner),
              [&](int64_t o_begin, int64_t o_end) {
                for (int64_t o = o_begin; o < o_end; ++o) {
                  float* dst = po + (o * mid_out + offset) * inner;
                  const float* src = pi + o * mid * inner;
                  std::memcpy(dst, src,
                              sizeof(float) *
                                  static_cast<size_t>(mid * inner));
                }
              });
}

void IndexSelectCopy(const float* pi, float* po, int64_t outer, int64_t mid,
                     int64_t inner, const int64_t* indices, int64_t nsel) {
  ParallelFor(outer * nsel, GrainFor(kCopyGrain, inner),
              [&](int64_t begin, int64_t end) {
                for (int64_t e = begin; e < end; ++e) {
                  const int64_t o = e / nsel;
                  const int64_t s = e % nsel;
                  const float* src = pi + (o * mid + indices[s]) * inner;
                  float* dst = po + e * inner;
                  std::memcpy(dst, src,
                              sizeof(float) * static_cast<size_t>(inner));
                }
              });
}

void ProbSparseMaskRows(const float* scores, float* mask, int64_t b,
                        int64_t s, int64_t u) {
  ParallelFor(b, GrainFor(kReductionGrain, s * s),
              [&](int64_t b_begin, int64_t b_end) {
    std::vector<std::pair<float, int64_t>> measure(static_cast<size_t>(s));
    for (int64_t bi = b_begin; bi < b_end; ++bi) {
      for (int64_t i = 0; i < s; ++i) {
        const float* row = scores + (bi * s + i) * s;
        float mx = row[0];
        float mean = 0.0f;
        for (int64_t j = 0; j < s; ++j) {
          mx = std::max(mx, row[j]);
          mean += row[j];
        }
        mean /= static_cast<float>(s);
        measure[static_cast<size_t>(i)] = {mx - mean, i};
      }
      std::partial_sort(measure.begin(), measure.begin() + u, measure.end(),
                        [](const auto& a, const auto& c) {
                          return a.first > c.first;
                        });
      float* pm = mask + bi * s;
      std::fill(pm, pm + s, 0.0f);
      for (int64_t i = 0; i < u; ++i) {
        pm[measure[static_cast<size_t>(i)].second] = 1.0f;
      }
    }
  });
}

void SumDim(const float* pi, float* po, int64_t outer, int64_t mid,
            int64_t inner) {
  // One chunk owns each output element's full accumulation, in the serial
  // order, so sums are bitwise identical at any thread count.
  ParallelFor(outer * inner, GrainFor(kReductionGrain, mid),
              [&](int64_t begin, int64_t end) {
                for (int64_t e = begin; e < end; ++e) {
                  const int64_t o = e / inner;
                  const int64_t i = e % inner;
                  float acc = 0.0f;
                  for (int64_t m = 0; m < mid; ++m) {
                    acc += pi[(o * mid + m) * inner + i];
                  }
                  po[e] = acc;
                }
              });
}

void SoftmaxDim(const float* pi, float* po, int64_t outer, int64_t mid,
                int64_t inner) {
  ParallelFor(outer * inner, GrainFor(kReductionGrain, 3 * mid),
              [&](int64_t begin, int64_t end) {
                for (int64_t e = begin; e < end; ++e) {
                  const int64_t o = e / inner;
                  const int64_t i = e % inner;
                  const int64_t base = o * mid * inner + i;
                  float mx = pi[base];
                  for (int64_t m = 1; m < mid; ++m) {
                    mx = std::max(mx, pi[base + m * inner]);
                  }
                  float denom = 0.0f;
                  for (int64_t m = 0; m < mid; ++m) {
                    const float ex = std::exp(pi[base + m * inner] - mx);
                    po[base + m * inner] = ex;
                    denom += ex;
                  }
                  const float inv = 1.0f / denom;
                  for (int64_t m = 0; m < mid; ++m) {
                    po[base + m * inner] *= inv;
                  }
                }
              });
}

void LogSoftmaxDim(const float* pi, float* po, int64_t outer, int64_t mid,
                   int64_t inner) {
  ParallelFor(outer * inner, GrainFor(kReductionGrain, 3 * mid),
              [&](int64_t begin, int64_t end) {
                for (int64_t e = begin; e < end; ++e) {
                  const int64_t o = e / inner;
                  const int64_t i = e % inner;
                  const int64_t base = o * mid * inner + i;
                  float mx = pi[base];
                  for (int64_t m = 1; m < mid; ++m) {
                    mx = std::max(mx, pi[base + m * inner]);
                  }
                  float denom = 0.0f;
                  for (int64_t m = 0; m < mid; ++m) {
                    denom += std::exp(pi[base + m * inner] - mx);
                  }
                  const float log_denom = std::log(denom) + mx;
                  for (int64_t m = 0; m < mid; ++m) {
                    po[base + m * inner] = pi[base + m * inner] - log_denom;
                  }
                }
              });
}

namespace {

// Row-wise driver for the bias-add epilogue: rows of x's last dim against
// the 1-d bias, act applied scalar-wise. Keeps the act dispatch outside
// the inner loop.
template <typename F>
void AddBiasEpilogueT(const float* pi, const float* pb, float* po,
                      int64_t rows, int64_t c, F f) {
  ParallelFor(rows, GrainFor(kElementwiseGrain, c),
              [&](int64_t begin, int64_t end) {
                for (int64_t r = begin; r < end; ++r) {
                  const float* x_row = pi + r * c;
                  float* out_row = po + r * c;
                  for (int64_t j = 0; j < c; ++j) {
                    out_row[j] = f(x_row[j] + pb[j]);
                  }
                }
              });
}

}  // namespace

void AddBiasActRows(const float* x, const float* bias, float* out,
                    int64_t rows, int64_t c, FusedAct act) {
  switch (act) {
    case FusedAct::kRelu:
      AddBiasEpilogueT(x, bias, out, rows, c,
                       [](float z) { return z > 0.0f ? z : 0.0f; });
      return;
    case FusedAct::kGelu:
      AddBiasEpilogueT(x, bias, out, rows, c,
                       [](float z) { return GeluFwd(z); });
      return;
    case FusedAct::kNone:
      break;
  }
  AddBiasEpilogueT(x, bias, out, rows, c, [](float z) { return z; });
}

namespace {

template <typename F>
void BroadcastMidT(const float* pa, const float* pb, float* po, int64_t rows,
                   int64_t t, int64_t c, F f) {
  ParallelFor(rows, GrainFor(kElementwiseGrain, c),
              [&](int64_t begin, int64_t end) {
                for (int64_t r = begin; r < end; ++r) {
                  const float* a_row = pa + r * c;
                  const float* b_row = pb + (r / t) * c;
                  float* out_row = po + r * c;
                  for (int64_t j = 0; j < c; ++j) {
                    out_row[j] = f(a_row[j], b_row[j]);
                  }
                }
              });
}

}  // namespace

void BroadcastMidRows(bool sub_op, const float* a, const float* b,
                      float* out, int64_t rows, int64_t t, int64_t c) {
  if (sub_op) {
    BroadcastMidT(a, b, out, rows, t, c,
                  [](float x, float y) { return ApplyBin(Bin::kSub, x, y); });
  } else {
    BroadcastMidT(a, b, out, rows, t, c,
                  [](float x, float y) { return ApplyBin(Bin::kAdd, x, y); });
  }
}

void GemmEpilogueRegion(float* c, int64_t ldc, int64_t r0, int64_t nrows,
                        int64_t j0, int64_t ncols, const float* bias,
                        int32_t act, const float* residual, int32_t res_op,
                        bool res_is_lhs) {
  // Bias + activation first, exactly AddBiasEpilogueT's per-element
  // expression (f(x + b), one add then the activation) restricted to the
  // region; then the residual binary, exactly BinarySameT's. Each stage
  // is a single IEEE op or an opaque GeluFwd call, so nothing contracts
  // across them and the region matches the unfused op pair bit for bit.
  for (int64_t r = r0; r < r0 + nrows; ++r) {
    float* crow = c + r * ldc + j0;
    if (bias != nullptr) {
      const float* pb = bias + j0;
      switch (static_cast<FusedAct>(act)) {
        case FusedAct::kRelu:
          for (int64_t j = 0; j < ncols; ++j) {
            const float z = crow[j] + pb[j];
            crow[j] = z > 0.0f ? z : 0.0f;
          }
          break;
        case FusedAct::kGelu:
          for (int64_t j = 0; j < ncols; ++j) {
            crow[j] = GeluFwd(crow[j] + pb[j]);
          }
          break;
        case FusedAct::kNone:
          for (int64_t j = 0; j < ncols; ++j) {
            crow[j] = crow[j] + pb[j];
          }
          break;
      }
    }
    if (residual != nullptr) {
      const float* rrow = residual + r * ldc + j0;
      // Dispatch on the op OUTSIDE the element loop (a per-element switch
      // blocks vectorization); ApplyBin with a compile-time op folds to
      // the bare instruction.
      auto sweep = [&](auto binop) {
        if (res_is_lhs) {
          for (int64_t j = 0; j < ncols; ++j) {
            crow[j] = binop(rrow[j], crow[j]);
          }
        } else {
          for (int64_t j = 0; j < ncols; ++j) {
            crow[j] = binop(crow[j], rrow[j]);
          }
        }
      };
      switch (static_cast<Bin>(res_op)) {
        case Bin::kAdd:
          sweep([](float x, float y) { return ApplyBin(Bin::kAdd, x, y); });
          break;
        case Bin::kSub:
          sweep([](float x, float y) { return ApplyBin(Bin::kSub, x, y); });
          break;
        case Bin::kMul:
          sweep([](float x, float y) { return ApplyBin(Bin::kMul, x, y); });
          break;
        case Bin::kDiv:
          sweep([](float x, float y) { return ApplyBin(Bin::kDiv, x, y); });
          break;
        case Bin::kMax:
          sweep([](float x, float y) { return ApplyBin(Bin::kMax, x, y); });
          break;
        case Bin::kMin:
          sweep([](float x, float y) { return ApplyBin(Bin::kMin, x, y); });
          break;
      }
    }
  }
}

namespace {

// One binary chain step over one row, op and operand pattern resolved at
// compile time so the sweep vectorizes (a per-element interpreter was
// measurably slower than the unfused passes it replaced). src may alias
// dst (in-place update from the second step on); reads and writes line
// up per element, and ApplyBin is a single IEEE op, so the value stream
// is identical to the unfused kernel's.
template <Bin kOp, bool kPrevIsA, bool kDense>
void ChainBinRow(const float* src, const float* other, float* dst,
                 int64_t w) {
  for (int64_t j = 0; j < w; ++j) {
    const float o = other[kDense ? j : 0];
    dst[j] = kPrevIsA ? ApplyBin(kOp, src[j], o) : ApplyBin(kOp, o, src[j]);
  }
}

template <Bin kOp>
void ChainBinRowOp(bool prev_is_a, bool dense, const float* src,
                   const float* other, float* dst, int64_t w) {
  if (prev_is_a) {
    if (dense) {
      ChainBinRow<kOp, true, true>(src, other, dst, w);
    } else {
      ChainBinRow<kOp, true, false>(src, other, dst, w);
    }
  } else if (dense) {
    ChainBinRow<kOp, false, true>(src, other, dst, w);
  } else {
    ChainBinRow<kOp, false, false>(src, other, dst, w);
  }
}

template <Un kOp>
void ChainUnRow(float s, const float* src, float* dst, int64_t w) {
  for (int64_t j = 0; j < w; ++j) dst[j] = ApplyUn(kOp, s, src[j]);
}

}  // namespace

void FusedChainRows(const float* in, float* out, int64_t rows, int64_t w,
                    const ChainStep* steps, int64_t nsteps) {
  // Same ParallelFor grain the unfused elementwise kernels use; chunk
  // boundaries are shape-derived so outputs are thread-count independent.
  // Each step runs as its own tight loop over the (cache-hot) row —
  // separate loops per step mean the compiler cannot contract operations
  // across steps into FMAs, keeping the chain bitwise identical to the
  // sequence of unfused passes.
  ParallelFor(rows, GrainFor(kElementwiseGrain, w),
              [&](int64_t begin, int64_t end) {
                for (int64_t r = begin; r < end; ++r) {
                  const float* src = in + r * w;
                  float* dst = out + r * w;
                  for (int64_t s = 0; s < nsteps; ++s) {
                    const ChainStep& st = steps[s];
                    if (st.is_binary) {
                      const float* other = st.other + st.row_base[r];
                      const bool dense = st.inner_step != 0;
                      switch (static_cast<Bin>(st.sub)) {
                        case Bin::kAdd:
                          ChainBinRowOp<Bin::kAdd>(st.prev_is_a, dense, src,
                                                   other, dst, w);
                          break;
                        case Bin::kSub:
                          ChainBinRowOp<Bin::kSub>(st.prev_is_a, dense, src,
                                                   other, dst, w);
                          break;
                        case Bin::kMul:
                          ChainBinRowOp<Bin::kMul>(st.prev_is_a, dense, src,
                                                   other, dst, w);
                          break;
                        case Bin::kDiv:
                          ChainBinRowOp<Bin::kDiv>(st.prev_is_a, dense, src,
                                                   other, dst, w);
                          break;
                        case Bin::kMax:
                          ChainBinRowOp<Bin::kMax>(st.prev_is_a, dense, src,
                                                   other, dst, w);
                          break;
                        case Bin::kMin:
                          ChainBinRowOp<Bin::kMin>(st.prev_is_a, dense, src,
                                                   other, dst, w);
                          break;
                      }
                    } else {
                      switch (static_cast<Un>(st.sub)) {
                        case Un::kAddScalar:
                          ChainUnRow<Un::kAddScalar>(st.scalar, src, dst, w);
                          break;
                        case Un::kMulScalar:
                          ChainUnRow<Un::kMulScalar>(st.scalar, src, dst, w);
                          break;
                        case Un::kNeg:
                          ChainUnRow<Un::kNeg>(st.scalar, src, dst, w);
                          break;
                        case Un::kSqrt:
                          ChainUnRow<Un::kSqrt>(st.scalar, src, dst, w);
                          break;
                        case Un::kAbs:
                          ChainUnRow<Un::kAbs>(st.scalar, src, dst, w);
                          break;
                        case Un::kRelu:
                          ChainUnRow<Un::kRelu>(st.scalar, src, dst, w);
                          break;
                        default:
                          // Transcendentals bottom out in opaque libm
                          // calls; a runtime-dispatch loop loses nothing.
                          for (int64_t j = 0; j < w; ++j) {
                            dst[j] = ApplyUn(static_cast<Un>(st.sub),
                                             st.scalar, src[j]);
                          }
                          break;
                      }
                    }
                    src = dst;  // later steps update the row in place
                  }
                }
              });
}

}  // namespace raw

namespace {

Tensor BinaryImpl(raw::Bin op, const Tensor& a, const Tensor& b) {
  if (SameShape(a.shape(), b.shape())) {
    Tensor out = Tensor::Empty(a.shape());
    raw::BinarySame(op, a.data(), b.data(), out.data(), a.numel());
    if (trace::Active()) trace::RecordBinarySame(op, a, b, out);
    return out;
  }
  const Shape out_shape = BroadcastShape(a.shape(), b.shape());
  Tensor out = Tensor::Empty(out_shape);
  const Shape sa = BroadcastStrides(a.shape(), out_shape);
  const Shape sb = BroadcastStrides(b.shape(), out_shape);
  raw::BinaryBcast(op, a.data(), b.data(), out.data(), out_shape.data(),
                   sa.data(), sb.data(),
                   static_cast<int64_t>(out_shape.size()), out.numel());
  if (trace::Active()) {
    trace::RecordBinaryBcast(op, a, b, out, out_shape, sa, sb);
  }
  return out;
}

Tensor UnaryImpl(raw::Un op, float s, const Tensor& a) {
  Tensor out = Tensor::Empty(a.shape());
  raw::Unary(op, s, a.data(), out.data(), a.numel());
  if (trace::Active()) trace::RecordUnary(op, s, a, out);
  return out;
}

}  // namespace

Shape BroadcastShape(const Shape& a, const Shape& b) {
  const int64_t nd = std::max(a.size(), b.size());
  const Shape pa = PadShape(a, nd);
  const Shape pb = PadShape(b, nd);
  Shape out(nd);
  for (int64_t i = 0; i < nd; ++i) {
    if (pa[i] == pb[i]) {
      out[i] = pa[i];
    } else if (pa[i] == 1) {
      out[i] = pb[i];
    } else if (pb[i] == 1) {
      out[i] = pa[i];
    } else {
      LIPF_CHECK(false) << "cannot broadcast " << ShapeToString(a) << " with "
                        << ShapeToString(b);
    }
  }
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return BinaryImpl(raw::Bin::kAdd, a, b);
}
Tensor Sub(const Tensor& a, const Tensor& b) {
  return BinaryImpl(raw::Bin::kSub, a, b);
}
Tensor Mul(const Tensor& a, const Tensor& b) {
  return BinaryImpl(raw::Bin::kMul, a, b);
}
Tensor Div(const Tensor& a, const Tensor& b) {
  return BinaryImpl(raw::Bin::kDiv, a, b);
}
Tensor Maximum(const Tensor& a, const Tensor& b) {
  return BinaryImpl(raw::Bin::kMax, a, b);
}
Tensor Minimum(const Tensor& a, const Tensor& b) {
  return BinaryImpl(raw::Bin::kMin, a, b);
}

Tensor AddScalar(const Tensor& a, float s) {
  return UnaryImpl(raw::Un::kAddScalar, s, a);
}
Tensor MulScalar(const Tensor& a, float s) {
  return UnaryImpl(raw::Un::kMulScalar, s, a);
}
Tensor PowScalar(const Tensor& a, float p) {
  return UnaryImpl(raw::Un::kPowScalar, p, a);
}

Tensor Neg(const Tensor& a) { return UnaryImpl(raw::Un::kNeg, 0.0f, a); }
Tensor Exp(const Tensor& a) { return UnaryImpl(raw::Un::kExp, 0.0f, a); }
Tensor Log(const Tensor& a) { return UnaryImpl(raw::Un::kLog, 0.0f, a); }
Tensor Sqrt(const Tensor& a) { return UnaryImpl(raw::Un::kSqrt, 0.0f, a); }
Tensor Abs(const Tensor& a) { return UnaryImpl(raw::Un::kAbs, 0.0f, a); }
Tensor Sin(const Tensor& a) { return UnaryImpl(raw::Un::kSin, 0.0f, a); }
Tensor Cos(const Tensor& a) { return UnaryImpl(raw::Un::kCos, 0.0f, a); }
Tensor Tanh(const Tensor& a) { return UnaryImpl(raw::Un::kTanh, 0.0f, a); }
Tensor Sigmoid(const Tensor& a) {
  return UnaryImpl(raw::Un::kSigmoid, 0.0f, a);
}
Tensor Relu(const Tensor& a) { return UnaryImpl(raw::Un::kRelu, 0.0f, a); }
Tensor Gelu(const Tensor& a) { return UnaryImpl(raw::Un::kGelu, 0.0f, a); }

namespace {

// Shared shape/broadcast prologue for the packed GEMM entry points.
// Logical operand shapes: a [.., m, k] (stored [.., k, m] when trans_a),
// b [.., k, n] (stored [.., n, k] when trans_b). Charges the theoretical
// nbatch*m*n*k MACs — a pure function of shapes, matching the executed
// work (see the MAC section in ops.h).
Tensor MatMulImpl(const Tensor& a, const Tensor& b, bool trans_a,
                  bool trans_b) {
  LIPF_CHECK_GE(a.dim(), 2);
  LIPF_CHECK_GE(b.dim(), 2);
  const int64_t m = trans_a ? a.size(-1) : a.size(-2);
  const int64_t k = trans_a ? a.size(-2) : a.size(-1);
  const int64_t kb = trans_b ? b.size(-1) : b.size(-2);
  const int64_t n = trans_b ? b.size(-2) : b.size(-1);
  LIPF_CHECK_EQ(k, kb) << "matmul inner dims: " << ShapeToString(a.shape())
                       << (trans_a ? "^T" : "") << " x "
                       << ShapeToString(b.shape()) << (trans_b ? "^T" : "");

  // Broadcast batch dims.
  Shape ba(a.shape().begin(), a.shape().end() - 2);
  Shape bb(b.shape().begin(), b.shape().end() - 2);
  Shape batch = BroadcastShape(ba, bb);
  const int64_t nbatch = NumElements(batch);

  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(n);
  // The GEMM writes (or memsets, when k == 0) every output element.
  Tensor out = Tensor::Empty(out_shape);

  // Shared-B fast path: [nbatch, m, k] x [k, n] (a Linear applied to
  // batched activations) is the same computation as one [nbatch*m, k] x
  // [k, n] GEMM when A is row-major non-transposed and not broadcast —
  // batch and row dims are adjacent, so the flattened A is the same
  // buffer. One big GEMM packs B once and fills MR-row blocks instead of
  // running nbatch tiny matmuls that each repack B and pad out partial
  // blocks. Bitwise identical: each output element's k-summation order
  // depends only on the KC blocking, not on how rows are grouped.
  if (!trans_a && nbatch > 1 && NumElements(bb) == 1 &&
      NumElements(ba) == nbatch) {
    GemmBatch flat;
    flat.nbatch = 1;
    const int64_t zero = 0;
    flat.a_mat_index = &zero;
    flat.b_mat_index = &zero;
    flat.num_b_mats = 1;
    PackedGemmBatched(a.data(), /*trans_a=*/false, b.data(), trans_b,
                      out.data(), nbatch * m, n, k, flat);
    if (MacsEnabled()) AddMacs(nbatch * m * n * k);
    if (trace::Active()) {
      trace::RecordGemm(a, b, out, /*trans_a=*/false, trans_b, nbatch * m, n,
                        k, flat);
    }
    return out;
  }

  // Per-batch matrix indices honoring broadcast (stride-0 dims repeat).
  const Shape sa = BroadcastStrides(ba, batch);
  const Shape sb = BroadcastStrides(bb, batch);
  std::vector<int64_t> a_idx(nbatch);
  std::vector<int64_t> b_idx(nbatch);
  for (int64_t bi = 0; bi < nbatch; ++bi) {
    a_idx[bi] = StridedOffset(bi, batch, sa, nullptr);
    b_idx[bi] = StridedOffset(bi, batch, sb, nullptr);
  }

  GemmBatch gb;
  gb.nbatch = nbatch;
  gb.a_mat_index = a_idx.data();
  gb.b_mat_index = b_idx.data();
  gb.num_b_mats = b.numel() / std::max<int64_t>(1, k * n);
  PackedGemmBatched(a.data(), trans_a, b.data(), trans_b, out.data(), m, n,
                    k, gb);
  if (MacsEnabled()) AddMacs(nbatch * m * n * k);
  if (trace::Active()) {
    trace::RecordGemm(a, b, out, trans_a, trans_b, m, n, k, gb);
  }
  return out;
}

}  // namespace

Tensor MatMul(const Tensor& a_in, const Tensor& b_in) {
  Tensor a = a_in;
  Tensor b = b_in;
  bool squeeze_m = false;
  bool squeeze_n = false;
  if (a.dim() == 1) {
    a = a.Unsqueeze(0);
    squeeze_m = true;
  }
  if (b.dim() == 1) {
    b = b.Unsqueeze(1);
    squeeze_n = true;
  }
  Tensor result = MatMulImpl(a, b, /*trans_a=*/false, /*trans_b=*/false);
  if (squeeze_m) result = result.Squeeze(result.dim() - 2);
  if (squeeze_n) result = result.Squeeze(result.dim() - 1);
  return result;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  return MatMulImpl(a, b, /*trans_a=*/false, /*trans_b=*/true);
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  return MatMulImpl(a, b, /*trans_a=*/true, /*trans_b=*/false);
}

Tensor MatMulReference(const Tensor& a_in, const Tensor& b_in) {
  // The pre-blocking serial ikj kernel, retained verbatim as the ground
  // truth the packed GEMM is tested against. Serial, no MAC accounting.
  if (trace::Active()) trace::RecordUnsupported("MatMulReference");
  Tensor a = a_in;
  Tensor b = b_in;
  bool squeeze_m = false;
  bool squeeze_n = false;
  if (a.dim() == 1) {
    a = a.Unsqueeze(0);
    squeeze_m = true;
  }
  if (b.dim() == 1) {
    b = b.Unsqueeze(1);
    squeeze_n = true;
  }
  LIPF_CHECK_GE(a.dim(), 2);
  LIPF_CHECK_GE(b.dim(), 2);
  const int64_t m = a.size(-2);
  const int64_t k = a.size(-1);
  const int64_t k2 = b.size(-2);
  const int64_t n = b.size(-1);
  LIPF_CHECK_EQ(k, k2) << "matmul inner dims: " << ShapeToString(a.shape())
                       << " x " << ShapeToString(b.shape());

  Shape ba(a.shape().begin(), a.shape().end() - 2);
  Shape bb(b.shape().begin(), b.shape().end() - 2);
  Shape batch = BroadcastShape(ba, bb);
  const int64_t nbatch = NumElements(batch);

  Shape out_shape = batch;
  out_shape.push_back(m);
  out_shape.push_back(n);
  Tensor out = Tensor::Empty(out_shape);  // every row memset then accumulated

  const Shape sa = BroadcastStrides(ba, batch);
  const Shape sb = BroadcastStrides(bb, batch);
  const int64_t a_mat = m * k;
  const int64_t b_mat = k * n;
  const int64_t o_mat = m * n;

  const float* pa_base = a.data();
  const float* pb_base = b.data();
  float* po_base = out.data();

  for (int64_t bi = 0; bi < nbatch; ++bi) {
    const float* pa = pa_base + StridedOffset(bi, batch, sa, nullptr) * a_mat;
    const float* pb = pb_base + StridedOffset(bi, batch, sb, nullptr) * b_mat;
    for (int64_t i = 0; i < m; ++i) {
      const float* pa_row = pa + i * k;
      float* po_row = po_base + bi * o_mat + i * n;
      std::memset(po_row, 0, sizeof(float) * static_cast<size_t>(n));
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = pa_row[kk];
        const float* pb_row = pb + kk * n;
        for (int64_t j = 0; j < n; ++j) {
          po_row[j] += av * pb_row[j];
        }
      }
    }
  }

  Tensor result = out;
  if (squeeze_m) result = result.Squeeze(result.dim() - 2);
  if (squeeze_n) result = result.Squeeze(result.dim() - 1);
  return result;
}

Tensor Permute(const Tensor& t, const std::vector<int64_t>& perm) {
  const int64_t nd = t.dim();
  LIPF_CHECK_EQ(static_cast<int64_t>(perm.size()), nd);
  std::vector<bool> seen(nd, false);
  Shape out_shape(nd);
  for (int64_t i = 0; i < nd; ++i) {
    const int64_t p = perm[i];
    LIPF_CHECK_GE(p, 0);
    LIPF_CHECK_LT(p, nd);
    LIPF_CHECK(!seen[p]) << "duplicate dim in permute";
    seen[p] = true;
    out_shape[i] = t.size(p);
  }
  Tensor out = Tensor::Empty(out_shape);
  if (t.numel() == 0) return out;

  const Shape& in_strides = t.strides();
  // Stride of output index d in the input layout.
  Shape gather(nd);
  for (int64_t i = 0; i < nd; ++i) gather[i] = in_strides[perm[i]];

  raw::PermuteCopy(t.data(), out.data(), out_shape.data(), gather.data(), nd,
                   t.numel());
  if (trace::Active()) trace::RecordPermute(t, out, out_shape, gather);
  return out;
}

Tensor Transpose(const Tensor& t, int64_t d0, int64_t d1) {
  const int64_t nd = t.dim();
  d0 = NormalizeDim(d0, nd);
  d1 = NormalizeDim(d1, nd);
  std::vector<int64_t> perm(nd);
  for (int64_t i = 0; i < nd; ++i) perm[i] = i;
  std::swap(perm[d0], perm[d1]);
  return Permute(t, perm);
}

Tensor Slice(const Tensor& t, int64_t dim, int64_t start, int64_t end) {
  dim = NormalizeDim(dim, t.dim());
  if (start < 0) start += t.size(dim);
  if (end < 0) end += t.size(dim);
  LIPF_CHECK_GE(start, 0);
  LIPF_CHECK_LE(end, t.size(dim));
  LIPF_CHECK_LE(start, end);
  int64_t outer, mid, inner;
  SplitAt(t.shape(), dim, &outer, &mid, &inner);
  Shape out_shape = t.shape();
  out_shape[dim] = end - start;
  Tensor out = Tensor::Empty(out_shape);
  const int64_t len = end - start;
  raw::SliceCopy(t.data(), out.data(), outer, mid, inner, start, len);
  if (trace::Active()) {
    trace::RecordSlice(t, out, outer, mid, inner, start, len);
  }
  return out;
}

Tensor Concat(const std::vector<Tensor>& ts, int64_t dim) {
  LIPF_CHECK(!ts.empty());
  const int64_t nd = ts[0].dim();
  dim = NormalizeDim(dim, nd);
  int64_t total = 0;
  for (const Tensor& t : ts) {
    LIPF_CHECK_EQ(t.dim(), nd);
    for (int64_t d = 0; d < nd; ++d) {
      if (d != dim) LIPF_CHECK_EQ(t.size(d), ts[0].size(d));
    }
    total += t.size(dim);
  }
  Shape out_shape = ts[0].shape();
  out_shape[dim] = total;
  Tensor out = Tensor::Empty(out_shape);
  int64_t outer, mid_out, inner;
  SplitAt(out_shape, dim, &outer, &mid_out, &inner);
  int64_t offset = 0;
  std::vector<int64_t> mids;
  mids.reserve(ts.size());
  for (const Tensor& t : ts) {
    const int64_t mid = t.size(dim);
    raw::ConcatCopyOne(t.data(), out.data(), outer, mid, mid_out, offset,
                       inner);
    mids.push_back(mid);
    offset += mid;
  }
  if (trace::Active()) {
    trace::RecordConcat(ts, out, outer, mid_out, inner, mids);
  }
  return out;
}

Tensor IndexSelect(const Tensor& t, int64_t dim,
                   const std::vector<int64_t>& indices) {
  dim = NormalizeDim(dim, t.dim());
  int64_t outer, mid, inner;
  SplitAt(t.shape(), dim, &outer, &mid, &inner);
  Shape out_shape = t.shape();
  out_shape[dim] = static_cast<int64_t>(indices.size());
  Tensor out = Tensor::Empty(out_shape);
  const int64_t nsel = static_cast<int64_t>(indices.size());
  // Validate on the calling thread so a bad index CHECK-fails outside the
  // pool, then gather rows in parallel (disjoint writes).
  for (int64_t s = 0; s < nsel; ++s) {
    LIPF_CHECK_GE(indices[s], 0);
    LIPF_CHECK_LT(indices[s], mid);
  }
  raw::IndexSelectCopy(t.data(), out.data(), outer, mid, inner,
                       indices.data(), nsel);
  if (trace::Active()) {
    trace::RecordIndexSelect(t, out, outer, mid, inner, indices);
  }
  return out;
}

Tensor Pad(const Tensor& t, int64_t dim, int64_t before, int64_t after) {
  if (trace::Active()) trace::RecordUnsupported("Pad");
  dim = NormalizeDim(dim, t.dim());
  LIPF_CHECK_GE(before, 0);
  LIPF_CHECK_GE(after, 0);
  int64_t outer, mid, inner;
  SplitAt(t.shape(), dim, &outer, &mid, &inner);
  Shape out_shape = t.shape();
  out_shape[dim] = mid + before + after;
  // Each outer block zeroes its own pad regions and copies the payload,
  // so the whole output is written exactly once (no upfront zero-fill).
  Tensor out = Tensor::Empty(out_shape);
  const float* pi = t.data();
  float* po = out.data();
  const int64_t out_mid = out_shape[dim];
  ParallelFor(outer, GrainFor(kCopyGrain, out_mid * inner),
              [&](int64_t o_begin, int64_t o_end) {
                for (int64_t o = o_begin; o < o_end; ++o) {
                  float* dst = po + o * out_mid * inner;
                  const float* src = pi + o * mid * inner;
                  std::memset(dst, 0,
                              sizeof(float) * static_cast<size_t>(before * inner));
                  std::memcpy(dst + before * inner, src,
                              sizeof(float) * static_cast<size_t>(mid * inner));
                  std::memset(dst + (before + mid) * inner, 0,
                              sizeof(float) * static_cast<size_t>(after * inner));
                }
              });
  return out;
}

Tensor Sum(const Tensor& t, int64_t dim, bool keepdim) {
  dim = NormalizeDim(dim, t.dim());
  int64_t outer, mid, inner;
  SplitAt(t.shape(), dim, &outer, &mid, &inner);
  Shape out_shape = t.shape();
  out_shape[dim] = 1;
  Tensor out = Tensor::Empty(out_shape);
  raw::SumDim(t.data(), out.data(), outer, mid, inner);
  if (trace::Active()) {
    trace::RecordReduction(trace::OpKind::kSum, t, out, outer, mid, inner);
  }
  return keepdim ? out : out.Squeeze(dim);
}

Tensor Mean(const Tensor& t, int64_t dim, bool keepdim) {
  const int64_t d = NormalizeDim(dim, t.dim());
  const float inv = 1.0f / static_cast<float>(t.size(d));
  return MulScalar(Sum(t, d, keepdim), inv);
}

std::pair<Tensor, Tensor> Max(const Tensor& t, int64_t dim) {
  if (trace::Active()) trace::RecordUnsupported("Max");
  dim = NormalizeDim(dim, t.dim());
  int64_t outer, mid, inner;
  SplitAt(t.shape(), dim, &outer, &mid, &inner);
  Shape out_shape = t.shape();
  out_shape[dim] = 1;
  Tensor values = Tensor::Empty(out_shape);
  Tensor argmax = Tensor::Empty(out_shape);
  const float* pi = t.data();
  float* pv = values.data();
  float* pa = argmax.data();
  ParallelFor(outer * inner, GrainFor(kReductionGrain, mid),
              [&](int64_t begin, int64_t end) {
                for (int64_t e = begin; e < end; ++e) {
                  const int64_t o = e / inner;
                  const int64_t i = e % inner;
                  float best = pi[o * mid * inner + i];
                  int64_t best_idx = 0;
                  for (int64_t m = 1; m < mid; ++m) {
                    const float v = pi[(o * mid + m) * inner + i];
                    if (v > best) {
                      best = v;
                      best_idx = m;
                    }
                  }
                  pv[e] = best;
                  pa[e] = static_cast<float>(best_idx);
                }
              });
  return {values, argmax};
}

float SumAll(const Tensor& t) {
  if (trace::Active()) trace::RecordUnsupported("SumAll");
  const float* p = t.data();
  double acc = 0.0;
  for (int64_t i = 0; i < t.numel(); ++i) acc += p[i];
  return static_cast<float>(acc);
}

float MeanAll(const Tensor& t) {
  LIPF_CHECK_GT(t.numel(), 0);
  return SumAll(t) / static_cast<float>(t.numel());
}

Tensor ProbSparseMask(const Tensor& scores, int64_t u) {
  LIPF_CHECK_EQ(scores.dim(), 3);
  const int64_t b = scores.size(0);
  const int64_t s = scores.size(1);
  LIPF_CHECK_EQ(scores.size(2), s);
  LIPF_CHECK(u >= 1 && u <= s) << "ProbSparseMask needs 1 <= u <= " << s;
  Tensor mask = Tensor::Empty(Shape{b, s, 1});
  raw::ProbSparseMaskRows(scores.data(), mask.data(), b, s, u);
  if (trace::Active()) trace::RecordProbSparseMask(scores, mask, b, s, u);
  return mask;
}

Tensor TimeDelayAggregate(const Tensor& q, const Tensor& k, const Tensor& v,
                          int64_t topk, std::vector<int64_t>* lags,
                          std::vector<float>* weights) {
  LIPF_CHECK_EQ(q.dim(), 3);
  LIPF_CHECK(SameShape(q.shape(), k.shape()) &&
             SameShape(q.shape(), v.shape()))
      << "TimeDelayAggregate needs q, k, v of one [b, s, d] shape";
  const int64_t b = q.size(0);
  const int64_t s = q.size(1);
  const int64_t d = q.size(2);
  LIPF_CHECK(topk >= 1 && topk <= s)
      << "TimeDelayAggregate needs 1 <= topk <= " << s;
  if (lags != nullptr) lags->resize(static_cast<size_t>(b * topk));
  if (weights != nullptr) weights->resize(static_cast<size_t>(b * topk));
  Tensor out = Tensor::Empty(q.shape());
  raw::TimeDelayAggregateRows(q.data(), k.data(), v.data(), out.data(), b, s,
                              d, topk, lags != nullptr ? lags->data() : nullptr,
                              weights != nullptr ? weights->data() : nullptr);
  if (trace::Active()) trace::RecordTimeDelayAggregate(q, k, v, out, topk);
  return out;
}

Tensor ReduceToShape(const Tensor& t, const Shape& target) {
  if (SameShape(t.shape(), target)) return t;
  const int64_t nd = t.dim();
  const Shape padded = PadShape(target, nd);
  Tensor cur = t;
  // Sum out dims where target has 1 (or was absent).
  for (int64_t d = 0; d < nd; ++d) {
    if (padded[d] == 1 && cur.size(d) != 1) {
      cur = Sum(cur, d, /*keepdim=*/true);
    } else {
      LIPF_CHECK_EQ(padded[d], cur.size(d))
          << "cannot reduce " << ShapeToString(t.shape()) << " to "
          << ShapeToString(target);
    }
  }
  return cur.Reshape(target);
}

Tensor BroadcastTo(const Tensor& t, const Shape& shape) {
  if (SameShape(t.shape(), shape)) return t;
  if (trace::Active()) trace::RecordUnsupported("BroadcastTo");
  LIPF_CHECK(SameShape(BroadcastShape(t.shape(), shape), shape))
      << "cannot broadcast " << ShapeToString(t.shape()) << " to "
      << ShapeToString(shape);
  Tensor out = Tensor::Empty(shape);
  const int64_t nd = static_cast<int64_t>(shape.size());
  const Shape st = BroadcastStrides(t.shape(), shape);
  const float* pi = t.data();
  float* po = out.data();
  ParallelFor(out.numel(), kCopyGrain, [&](int64_t begin, int64_t end) {
    std::vector<int64_t> idx(nd, 0);
    int64_t src = StridedOffset(begin, shape, st, &idx);
    for (int64_t i = begin; i < end; ++i) {
      po[i] = pi[src];
      for (int64_t d = nd - 1; d >= 0; --d) {
        ++idx[d];
        src += st[d];
        if (idx[d] < shape[d]) break;
        idx[d] = 0;
        src -= st[d] * shape[d];
      }
    }
  });
  return out;
}

Tensor Softmax(const Tensor& t, int64_t dim) {
  dim = NormalizeDim(dim, t.dim());
  int64_t outer, mid, inner;
  SplitAt(t.shape(), dim, &outer, &mid, &inner);
  Tensor out = Tensor::Empty(t.shape());
  raw::SoftmaxDim(t.data(), out.data(), outer, mid, inner);
  if (trace::Active()) {
    trace::RecordReduction(trace::OpKind::kSoftmax, t, out, outer, mid,
                           inner);
  }
  return out;
}

Tensor LogSoftmax(const Tensor& t, int64_t dim) {
  dim = NormalizeDim(dim, t.dim());
  int64_t outer, mid, inner;
  SplitAt(t.shape(), dim, &outer, &mid, &inner);
  Tensor out = Tensor::Empty(t.shape());
  raw::LogSoftmaxDim(t.data(), out.data(), outer, mid, inner);
  if (trace::Active()) {
    trace::RecordReduction(trace::OpKind::kLogSoftmax, t, out, outer, mid,
                           inner);
  }
  return out;
}

// The fused softmax pair promises bitwise identity with the unfused
// MulScalar -> AddConst -> Softmax chain (and its backward), whose
// kernels round every intermediate to float. GCC contracts mul+add into
// fma even across statements at -O3 -march=native, which would skip one
// rounding, so contraction is off for exactly these functions (the raw
// row kernel carries the loops; both entry points live in the region).
#pragma GCC push_options
#pragma GCC optimize("fp-contract=off")

namespace raw {

void ScaledMaskedSoftmaxRows(const float* pi, float* po, int64_t rows,
                             int64_t mid, float scale, const float* pm,
                             int64_t sq) {
  ParallelFor(rows, GrainFor(kReductionGrain, 3 * mid),
              [&](int64_t begin, int64_t end) {
                for (int64_t r = begin; r < end; ++r) {
                  const float* in_row = pi + r * mid;
                  float* out_row = po + r * mid;
                  const float* mask_row =
                      pm != nullptr ? pm + (r % sq) * mid : nullptr;
                  // v = scale*x (+ mask), with the same two roundings as
                  // the unfused MulScalar -> AddConst chain (kept as two
                  // statements so the compiler cannot contract to an fma).
                  for (int64_t m = 0; m < mid; ++m) {
                    const float sv = in_row[m] * scale;
                    out_row[m] =
                        mask_row != nullptr ? sv + mask_row[m] : sv;
                  }
                  float mx = out_row[0];
                  for (int64_t m = 1; m < mid; ++m) {
                    mx = std::max(mx, out_row[m]);
                  }
                  float denom = 0.0f;
                  for (int64_t m = 0; m < mid; ++m) {
                    const float ex = std::exp(out_row[m] - mx);
                    out_row[m] = ex;
                    denom += ex;
                  }
                  const float inv = 1.0f / denom;
                  for (int64_t m = 0; m < mid; ++m) {
                    out_row[m] *= inv;
                  }
                }
              });
}

}  // namespace raw

Tensor ScaledMaskedSoftmax(const Tensor& t, float scale, const Tensor* mask) {
  LIPF_CHECK_GE(t.dim(), 1);
  const int64_t mid = t.size(-1);
  const int64_t rows = t.numel() / std::max<int64_t>(1, mid);
  int64_t sq = 1;
  const float* pm = nullptr;
  if (mask != nullptr) {
    LIPF_CHECK_EQ(mask->dim(), 2);
    LIPF_CHECK_EQ(mask->size(1), mid);
    LIPF_CHECK_GE(t.dim(), 2);
    LIPF_CHECK_EQ(t.size(-2), mask->size(0));
    sq = mask->size(0);
    pm = mask->data();
  }
  Tensor out = Tensor::Empty(t.shape());
  raw::ScaledMaskedSoftmaxRows(t.data(), out.data(), rows, mid, scale, pm,
                               sq);
  if (trace::Active()) {
    trace::RecordScaledMaskedSoftmax(t, mask, out, rows, mid, sq, scale);
  }
  return out;
}

Tensor ScaledMaskedSoftmaxBackward(const Tensor& g, const Tensor& y,
                                   float scale) {
  if (trace::Active()) {
    trace::RecordUnsupported("ScaledMaskedSoftmaxBackward");
  }
  LIPF_CHECK(SameShape(g.shape(), y.shape()));
  LIPF_CHECK_GE(y.dim(), 1);
  const int64_t mid = y.size(-1);
  const int64_t rows = y.numel() / std::max<int64_t>(1, mid);
  Tensor out = Tensor::Empty(y.shape());
  const float* pg = g.data();
  const float* py = y.data();
  float* po = out.data();
  ParallelFor(rows, GrainFor(kReductionGrain, 2 * mid),
              [&](int64_t begin, int64_t end) {
                for (int64_t r = begin; r < end; ++r) {
                  const float* g_row = pg + r * mid;
                  const float* y_row = py + r * mid;
                  float* out_row = po + r * mid;
                  // The unfused chain (Mul then Sum) stores each rounded
                  // product before accumulating; fp-contract is off here
                  // so `p` rounds the same way.
                  float dot = 0.0f;
                  for (int64_t m = 0; m < mid; ++m) {
                    const float p = g_row[m] * y_row[m];
                    dot += p;
                  }
                  for (int64_t m = 0; m < mid; ++m) {
                    out_row[m] = ((g_row[m] - dot) * y_row[m]) * scale;
                  }
                }
              });
  return out;
}

#pragma GCC pop_options

// ---- Fused attention (DESIGN.md "Fused attention") ----
// Compiled with the file's default contraction: the score and output
// accumulations become FMAs. That never splits paths, because every
// caller — the eager op, its taped form and the plan executor — runs this
// one compiled loop.

namespace {

// Work per ParallelFor chunk, in MACs; one item is one query block.
constexpr int64_t kAttentionGrain = 32768;
// Head-dimension columns of the query block held transposed at once. A
// longer head takes several passes over the keys, which accumulate into
// the same score block in the same d order.
constexpr int64_t kAttentionDChunk = 64;

}  // namespace

namespace raw {

void AttentionRows(const float* q, const float* k, const float* v,
                   float* out, float* probs, int64_t batch, int64_t heads,
                   int64_t sq, int64_t sk, int64_t dk, int64_t dv,
                   float scale, const float* mask) {
  const int64_t ldk = heads * dk;  // row stride of q and k
  const int64_t ldv = heads * dv;  // row stride of v and out
  const int64_t blocks = (sq + kVecLanes - 1) / kVecLanes;
  ParallelFor(
      batch * heads * blocks,
      GrainFor(kAttentionGrain, kVecLanes * sk * (dk + dv)),
      [&](int64_t begin, int64_t end) {
        VecF s[kAttentionMaxKeys];  // s[j] lane l: query i0+l vs key j
        VecF qt[kAttentionDChunk];  // qt[d] lane l: q[i0+l][d0+d]
        for (int64_t item = begin; item < end; ++item) {
          const int64_t slice = item / blocks;  // b * heads + h
          const int64_t i0 = (item % blocks) * kVecLanes;
          const int64_t nq = std::min(kVecLanes, sq - i0);
          const int64_t b = slice / heads;
          const int64_t h = slice % heads;
          const float* qb = q + (b * sq + i0) * ldk + h * dk;
          const float* kb = k + b * sk * ldk + h * dk;
          const float* vb = v + b * sk * ldv + h * dv;
          float* ob = out + (b * sq + i0) * ldv + h * dv;

          // Scores: q·k_j summed over d in order, four keys per sweep of
          // qt. The last group repeats key sk-1 where sk is not a multiple
          // of four, rewriting the identical value.
          for (int64_t j = 0; j < sk; ++j) s[j] = VecF{};
          for (int64_t d0 = 0; d0 < dk; d0 += kAttentionDChunk) {
            const int64_t dn = std::min(kAttentionDChunk, dk - d0);
            for (int64_t d = 0; d < dn; ++d) {
              VecF col = {};
              for (int64_t l = 0; l < nq; ++l) col[l] = qb[l * ldk + d0 + d];
              qt[d] = col;
            }
            for (int64_t j = 0; j < sk; j += 4) {
              const int64_t j1 = std::min(j + 1, sk - 1);
              const int64_t j2 = std::min(j + 2, sk - 1);
              const int64_t j3 = std::min(j + 3, sk - 1);
              const float* k0 = kb + j * ldk + d0;
              const float* k1 = kb + j1 * ldk + d0;
              const float* k2 = kb + j2 * ldk + d0;
              const float* k3 = kb + j3 * ldk + d0;
              VecF a0 = s[j], a1 = s[j1], a2 = s[j2], a3 = s[j3];
              for (int64_t d = 0; d < dn; ++d) {
                a0 += k0[d] * qt[d];
                a1 += k1[d] * qt[d];
                a2 += k2[d] * qt[d];
                a3 += k3[d] * qt[d];
              }
              s[j] = a0;
              s[j1] = a1;
              s[j2] = a2;
              s[j3] = a3;
            }
          }
          for (int64_t j = 0; j < sk; ++j) s[j] *= scale;
          if (mask != nullptr) {
            const float* mb = mask + i0 * sk;
            for (int64_t j = 0; j < sk; ++j) {
              VecF m = {};
              for (int64_t l = 0; l < nq; ++l) m[l] = mb[l * sk + j];
              s[j] += m;
            }
          }

          // Softmax over keys, lane-wise: max, ExpVec, sum, normalize.
          VecF mx = s[0];
          for (int64_t j = 1; j < sk; ++j) mx = s[j] > mx ? s[j] : mx;
          VecF sum = {};
          for (int64_t j = 0; j < sk; ++j) {
            VecF e = s[j] - mx;
            ExpVec(e);
            s[j] = e;
            sum += e;
          }
          const VecF inv = 1.0f / sum;
          for (int64_t j = 0; j < sk; ++j) s[j] *= inv;
          if (probs != nullptr) {
            float* pb = probs + (slice * sq + i0) * sk;
            for (int64_t l = 0; l < nq; ++l) {
              for (int64_t j = 0; j < sk; ++j) pb[l * sk + j] = s[j][l];
            }
          }

          // out[i][d] = sum_j p[i][j] v[j][d], j in order, four output
          // columns per sweep of the keys (the last group repeats column
          // dv-1 like the score loop repeats a key).
          for (int64_t d = 0; d < dv; d += 4) {
            const int64_t d1 = std::min(d + 1, dv - 1);
            const int64_t d2 = std::min(d + 2, dv - 1);
            const int64_t d3 = std::min(d + 3, dv - 1);
            VecF o0 = {}, o1 = {}, o2 = {}, o3 = {};
            for (int64_t j = 0; j < sk; ++j) {
              const float* vr = vb + j * ldv;
              const VecF p = s[j];
              o0 += vr[d] * p;
              o1 += vr[d1] * p;
              o2 += vr[d2] * p;
              o3 += vr[d3] * p;
            }
            for (int64_t l = 0; l < nq; ++l) {
              float* orow = ob + l * ldv;
              orow[d] = o0[l];
              orow[d1] = o1[l];
              orow[d2] = o2[l];
              orow[d3] = o3[l];
            }
          }
        }
      });
}

}  // namespace raw

Tensor Attention(const Tensor& q, const Tensor& k, const Tensor& v,
                 int64_t num_heads, float scale, const Tensor* mask,
                 Tensor* probs) {
  LIPF_CHECK_EQ(q.dim(), 3);
  LIPF_CHECK_EQ(k.dim(), 3);
  LIPF_CHECK_EQ(v.dim(), 3);
  const int64_t b = q.size(0);
  const int64_t sq = q.size(1);
  const int64_t sk = k.size(1);
  LIPF_CHECK_EQ(k.size(0), b);
  LIPF_CHECK_EQ(v.size(0), b);
  LIPF_CHECK_EQ(v.size(1), sk);
  LIPF_CHECK_EQ(k.size(2), q.size(2));
  LIPF_CHECK_GE(num_heads, 1);
  LIPF_CHECK_EQ(q.size(2) % num_heads, 0);
  LIPF_CHECK_EQ(v.size(2) % num_heads, 0);
  const int64_t dk = q.size(2) / num_heads;
  const int64_t dv = v.size(2) / num_heads;
  LIPF_CHECK_GE(dk, 1);
  LIPF_CHECK_GE(sk, 1);
  LIPF_CHECK_LE(sk, raw::kAttentionMaxKeys)
      << "attention over more keys than the kernel's stack score block";
  if (mask != nullptr) {
    LIPF_CHECK_EQ(mask->dim(), 2);
    LIPF_CHECK_EQ(mask->size(0), sq);
    LIPF_CHECK_EQ(mask->size(1), sk);
  }
  Tensor out = Tensor::Empty(Shape{b, sq, v.size(2)});
  float* pp = nullptr;
  if (probs != nullptr) {
    *probs = Tensor::Empty(Shape{b, num_heads, sq, sk});
    pp = probs->data();
  }
  raw::AttentionRows(q.data(), k.data(), v.data(), out.data(), pp, b,
                     num_heads, sq, sk, dk, dv, scale,
                     mask != nullptr ? mask->data() : nullptr);
  // Scores plus the probability-weighted sum: what the composed
  // MatMulTransB -> MatMul pair charges.
  if (MacsEnabled()) AddMacs(b * num_heads * sq * sk * (dk + dv));
  if (trace::Active()) {
    trace::RecordAttention(q, k, v, mask, out, num_heads, scale);
  }
  return out;
}

std::vector<Tensor> AttentionBackward(const Tensor& g, const Tensor& q,
                                      const Tensor& k, const Tensor& v,
                                      const Tensor& probs, int64_t num_heads,
                                      float scale) {
  if (trace::Active()) trace::RecordUnsupported("AttentionBackward");
  const int64_t b = q.size(0);
  const int64_t sq = q.size(1);
  const int64_t sk = k.size(1);
  const int64_t h = num_heads;
  const int64_t dk = q.size(2) / h;
  const int64_t dv = v.size(2) / h;
  // [b, s, h*d] <-> [b, h, s, d]; a single head needs only the view.
  auto split = [&](const Tensor& t, int64_t s, int64_t d) {
    return h == 1 ? t.Reshape({b, 1, s, d})
                  : Permute(t.Reshape({b, s, h, d}), {0, 2, 1, 3});
  };
  auto merge = [&](const Tensor& t, int64_t s, int64_t d) {
    return (h == 1 ? t : Permute(t, {0, 2, 1, 3})).Reshape({b, s, h * d});
  };
  const Tensor gh = split(g, sq, dv);
  const Tensor qh = split(q, sq, dk);
  const Tensor kh = split(k, sk, dk);
  const Tensor vh = split(v, sk, dv);
  // With P = softmax(scale * q k^T + mask): dv = P^T g, dP = g v^T,
  // dS = scale * P (dP - rowsum(dP P)), dq = dS k, dk = dS^T q.
  const Tensor dvh = MatMulTransA(probs, gh);
  const Tensor ds =
      ScaledMaskedSoftmaxBackward(MatMulTransB(gh, vh), probs, scale);
  const Tensor dqh = MatMul(ds, kh);
  const Tensor dkh = MatMulTransA(ds, qh);
  return {merge(dqh, sq, dk), merge(dkh, sk, dk), merge(dvh, sk, dv)};
}

namespace {

// Same traversal as the forward epilogue for the backward: f(g, z) with z
// the recomputed pre-activation.
template <typename F>
Tensor AddBiasEpilogueBwd(const Tensor& g, const Tensor& x,
                          const Tensor& bias, F f) {
  LIPF_CHECK(SameShape(g.shape(), x.shape()));
  const int64_t c = bias.size(0);
  const int64_t rows = x.numel() / std::max<int64_t>(1, c);
  Tensor out = Tensor::Empty(x.shape());
  const float* pg = g.data();
  const float* pi = x.data();
  const float* pb = bias.data();
  float* po = out.data();
  ParallelFor(rows, GrainFor(kElementwiseGrain, c),
              [&](int64_t begin, int64_t end) {
                for (int64_t r = begin; r < end; ++r) {
                  const float* g_row = pg + r * c;
                  const float* x_row = pi + r * c;
                  float* out_row = po + r * c;
                  for (int64_t j = 0; j < c; ++j) {
                    out_row[j] = f(g_row[j], x_row[j] + pb[j]);
                  }
                }
              });
  return out;
}

}  // namespace

Tensor AddBiasAct(const Tensor& x, const Tensor& bias, FusedAct act) {
  LIPF_CHECK_EQ(bias.dim(), 1);
  const int64_t c = bias.size(0);
  LIPF_CHECK_GE(x.dim(), 1);
  LIPF_CHECK_EQ(x.size(-1), c);
  const int64_t rows = x.numel() / std::max<int64_t>(1, c);
  Tensor out = Tensor::Empty(x.shape());
  raw::AddBiasActRows(x.data(), bias.data(), out.data(), rows, c, act);
  if (trace::Active()) trace::RecordAddBiasAct(x, bias, out, rows, c, act);
  return out;
}

Tensor AddBiasActBackward(const Tensor& g, const Tensor& x,
                          const Tensor& bias, FusedAct act) {
  if (trace::Active()) trace::RecordUnsupported("AddBiasActBackward");
  switch (act) {
    case FusedAct::kRelu:
      return AddBiasEpilogueBwd(
          g, x, bias, [](float gv, float z) { return z > 0.0f ? gv : 0.0f; });
    case FusedAct::kGelu:
      return AddBiasEpilogueBwd(
          g, x, bias, [](float gv, float z) { return gv * GeluGrad(z); });
    case FusedAct::kNone:
      break;
  }
  return g;  // identity epilogue: dL/dz is the upstream gradient itself
}

namespace {

Tensor BroadcastMidImpl(bool sub_op, const Tensor& a, const Tensor& b) {
  LIPF_CHECK_EQ(a.dim(), 3);
  LIPF_CHECK_EQ(b.dim(), 3);
  LIPF_CHECK_EQ(b.size(1), 1);
  LIPF_CHECK_EQ(a.size(0), b.size(0));
  LIPF_CHECK_EQ(a.size(2), b.size(2));
  const int64_t t = a.size(1);
  const int64_t c = a.size(2);
  Tensor out = Tensor::Empty(a.shape());
  raw::BroadcastMidRows(sub_op, a.data(), b.data(), out.data(),
                        a.size(0) * t, t, c);
  if (trace::Active()) {
    trace::RecordBroadcastMid(sub_op, a, b, out, a.size(0) * t, t, c);
  }
  return out;
}

}  // namespace

Tensor SubBroadcastMid(const Tensor& a, const Tensor& b) {
  return BroadcastMidImpl(/*sub_op=*/true, a, b);
}

Tensor AddBroadcastMid(const Tensor& a, const Tensor& b) {
  return BroadcastMidImpl(/*sub_op=*/false, a, b);
}

bool AllClose(const Tensor& a, const Tensor& b, float atol, float rtol) {
  if (!SameShape(a.shape(), b.shape())) return false;
  const float* pa = a.data();
  const float* pb = b.data();
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float diff = std::fabs(pa[i] - pb[i]);
    const float tol = atol + rtol * std::fabs(pb[i]);
    if (diff > tol || std::isnan(diff)) return false;
  }
  return true;
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  LIPF_CHECK(SameShape(a.shape(), b.shape()));
  const float* pa = a.data();
  const float* pb = b.data();
  float mx = 0.0f;
  for (int64_t i = 0; i < a.numel(); ++i) {
    mx = std::max(mx, std::fabs(pa[i] - pb[i]));
  }
  return mx;
}

void SetMacCountingEnabled(bool enabled) {
  g_mac_enabled.store(enabled, std::memory_order_relaxed);
}
bool MacCountingEnabled() {
  return g_mac_enabled.load(std::memory_order_relaxed);
}
void ResetMacCount() { g_mac_count.store(0, std::memory_order_relaxed); }
int64_t MacCount() { return g_mac_count.load(std::memory_order_relaxed); }
void AddMacCount(int64_t macs) {
  if (MacsEnabled()) AddMacs(macs);
}

}  // namespace lipformer
