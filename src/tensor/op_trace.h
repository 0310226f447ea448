#ifndef LIPFORMER_TENSOR_OP_TRACE_H_
#define LIPFORMER_TENSOR_OP_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "tensor/gemm.h"
#include "tensor/ops_raw.h"
#include "tensor/tensor.h"

// Thread-local op tracing behind the AOT inference plans (serve/plan.h).
// While a trace::Recorder is alive on the current thread, every forward
// tensor kernel appends one TraceRecord after computing its result: the
// kernel id, the resolved dims its raw loop ran with, and the raw data
// pointers of its operands. The plan compiler replays the record list
// against a preplanned arena; pointers are how values are identified, so
// the recorder keeps a Tensor handle to every operand alive for the whole
// trace (the storage pool would otherwise recycle a block mid-trace and
// alias two distinct values).
//
// Data-dependent decisions are ordinary recorded ops whose kernel makes
// the decision on every run: Informer's query selection
// (kProbSparseMask) and Autoformer's lag selection
// (kTimeDelayAggregate). Ops no serving forward reaches (Pad, Max,
// BroadcastTo, SumAll/MeanAll, Autocorrelation, MatMulReference and the
// backward-only kernels) do not record — they poison the trace via
// RecordUnsupported(), and plan compilation fails with a typed error.
//
// Tracing is strictly thread-local and costs one thread-local load per
// kernel when inactive.

namespace lipformer {

struct Int8PackedWeight;

namespace trace {

enum class OpKind : int32_t {
  kBinary = 0,     // raw::BinarySame; sub = raw::Bin
  kBinaryBcast,    // raw::BinaryBcast; sub = raw::Bin
  kUnary,          // raw::Unary; sub = raw::Un, scalar operand in `scalar`
  kGemm,           // PackedGemmBatched
  kQuantLinear,    // QuantLinearForward (nn/linear.h)
  kPermute,        // raw::PermuteCopy
  kSlice,          // raw::SliceCopy
  kConcat,         // raw::ConcatCopyOne per input
  kSum,            // raw::SumDim
  kSoftmax,        // raw::SoftmaxDim
  kAddBiasAct,     // raw::AddBiasActRows; sub = FusedAct
  kIndexSelect,    // raw::IndexSelectCopy
  kProbSparseMask,       // raw::ProbSparseMaskRows
  kTimeDelayAggregate,   // raw::TimeDelayAggregateRows
  kAttention,      // raw::AttentionRows
  // Never emitted. The names stay while BENCHMARK.json lists
  // plan.op_us.<name>.* (benchmark/ zero-fills every kind's metric).
  kScaledMaskedSoftmax,
  kBroadcastMid,
  kFusedChain,
  kNumKinds,
};

const char* OpKindName(OpKind kind);

// One recorded kernel invocation. Dim slots d[] per kind:
//   kBinary:       d0=numel
//   kBinaryBcast:  d0=numel d1=nd         aux0=oshape aux1=sa aux2=sb
//   kUnary:        d0=numel
//   kGemm:         d0=m d1=n d2=k d3=nbatch d4=num_b_mats
//                  aux0=a_mat_index aux1=b_mat_index
//   kQuantLinear:  d0=m d1=in d2=out      in={x, col_scale}
//   kPermute:      d0=numel d1=nd         aux0=oshape aux1=gather
//   kSlice:        d0=outer d1=mid d2=inner d3=start d4=len
//   kConcat:       d0=outer d1=mid_out d2=inner   aux0=per-input mids
//   kSum/kSoftmax: d0=outer d1=mid d2=inner
//   kAddBiasAct:   d0=rows d1=c           in={x, bias}
//   kIndexSelect:  d0=outer d1=mid d2=inner d3=nsel  aux0=indices
//   kProbSparseMask: d0=b d1=s d2=u
//   kTimeDelayAggregate: d0=b d1=s d2=d d3=topk   in={q, k, v}
//   kAttention:    d0=batch d1=heads d2=sq d3=sk d4=dk d5=dv, sub=has_mask
//                  in={q, k, v[, mask]}
struct TraceRecord {
  OpKind kind = OpKind::kBinary;
  int32_t sub = 0;
  float scalar = 0.0f;
  std::vector<const float*> in;  // operand data pointers, kind-specific
  const float* out = nullptr;
  int64_t out_numel = 0;
  int64_t d[6] = {0, 0, 0, 0, 0, 0};
  bool trans_a = false;
  bool trans_b = false;
  std::vector<int64_t> aux0, aux1, aux2;
  const Int8PackedWeight* packed = nullptr;  // kQuantLinear only
  int64_t macs = 0;  // kGemm / kQuantLinear / kAttention MAC charge
};

// RAII trace scope for the current thread. Nesting restores the previous
// recorder on destruction.
class Recorder {
 public:
  Recorder();
  ~Recorder();
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // Trace is valid only while no unsupported op ran.
  bool ok() const { return unsupported_.empty(); }
  const std::string& unsupported() const { return unsupported_; }

  const std::vector<TraceRecord>& records() const { return records_; }

  // A kept Tensor whose data() is `ptr`, or an empty handle. Used by the
  // plan compiler to take ownership of constant operands (weights, masks,
  // zero feature tensors created inside the traced forward).
  Tensor FindKept(const float* ptr) const;

  // Internal hook API (called via the free functions below).
  void Keep(const Tensor& t);
  void Add(TraceRecord rec);
  void MarkUnsupported(const char* what);

 private:
  std::vector<TraceRecord> records_;
  std::vector<Tensor> kept_;
  std::string unsupported_;
  Recorder* prev_ = nullptr;
};

// The active recorder of the current thread, nullptr when not tracing.
Recorder* ActiveRecorder();
inline bool Active() { return ActiveRecorder() != nullptr; }

// ---- Hooks (no-ops when inactive; ops.cc guards with Active()) ----
void RecordBinarySame(raw::Bin op, const Tensor& a, const Tensor& b,
                      const Tensor& out);
void RecordBinaryBcast(raw::Bin op, const Tensor& a, const Tensor& b,
                       const Tensor& out, const Shape& oshape,
                       const Shape& sa, const Shape& sb);
void RecordUnary(raw::Un op, float scalar, const Tensor& a,
                 const Tensor& out);
void RecordGemm(const Tensor& a, const Tensor& b, const Tensor& out,
                bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                const GemmBatch& batch);
void RecordQuantLinear(const Tensor& x, const Tensor& col_scale,
                       const Tensor& out, int64_t m, int64_t in_features,
                       int64_t out_features, const Int8PackedWeight* packed);
void RecordPermute(const Tensor& in, const Tensor& out, const Shape& oshape,
                   const Shape& gather);
void RecordSlice(const Tensor& in, const Tensor& out, int64_t outer,
                 int64_t mid, int64_t inner, int64_t start, int64_t len);
void RecordConcat(const std::vector<Tensor>& ins, const Tensor& out,
                  int64_t outer, int64_t mid_out, int64_t inner,
                  const std::vector<int64_t>& mids);
void RecordReduction(OpKind kind, const Tensor& in, const Tensor& out,
                     int64_t outer, int64_t mid, int64_t inner);
void RecordAddBiasAct(const Tensor& x, const Tensor& bias, const Tensor& out,
                      int64_t rows, int64_t c, FusedAct act);
void RecordIndexSelect(const Tensor& in, const Tensor& out, int64_t outer,
                       int64_t mid, int64_t inner,
                       const std::vector<int64_t>& indices);
void RecordProbSparseMask(const Tensor& scores, const Tensor& mask,
                          int64_t b, int64_t s, int64_t u);
void RecordTimeDelayAggregate(const Tensor& q, const Tensor& k,
                              const Tensor& v, const Tensor& out,
                              int64_t topk);
void RecordAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                     const Tensor* mask, const Tensor& out,
                     int64_t num_heads, float scale);
// Poisons the active trace: `what` names the op that cannot be compiled.
void RecordUnsupported(const char* what);

}  // namespace trace
}  // namespace lipformer

#endif  // LIPFORMER_TENSOR_OP_TRACE_H_
