#include "tensor/op_trace.h"

#include <utility>

namespace lipformer {
namespace trace {

namespace {

thread_local Recorder* g_recorder = nullptr;

// Shape vectors copied into aux slots.
std::vector<int64_t> ToVec(const Shape& s) {
  return std::vector<int64_t>(s.begin(), s.end());
}

}  // namespace

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kBinary: return "binary";
    case OpKind::kBinaryBcast: return "binary_bcast";
    case OpKind::kUnary: return "unary";
    case OpKind::kGemm: return "gemm";
    case OpKind::kQuantLinear: return "quant_linear";
    case OpKind::kPermute: return "permute";
    case OpKind::kSlice: return "slice";
    case OpKind::kConcat: return "concat";
    case OpKind::kSum: return "sum";
    case OpKind::kSoftmax: return "softmax";
    case OpKind::kAddBiasAct: return "add_bias_act";
    case OpKind::kIndexSelect: return "index_select";
    case OpKind::kProbSparseMask: return "prob_sparse_mask";
    case OpKind::kTimeDelayAggregate: return "time_delay_aggregate";
    case OpKind::kAttention: return "attention";
    case OpKind::kScaledMaskedSoftmax: return "scaled_masked_softmax";
    case OpKind::kBroadcastMid: return "broadcast_mid";
    case OpKind::kFusedChain: return "fused_chain";
    case OpKind::kNumKinds: break;
  }
  return "?";
}

Recorder::Recorder() : prev_(g_recorder) { g_recorder = this; }

Recorder::~Recorder() { g_recorder = prev_; }

Recorder* ActiveRecorder() { return g_recorder; }

Tensor Recorder::FindKept(const float* ptr) const {
  for (const Tensor& t : kept_) {
    if (t.data() == ptr) return t;
  }
  return Tensor();
}

void Recorder::Keep(const Tensor& t) { kept_.push_back(t); }

void Recorder::Add(TraceRecord rec) { records_.push_back(std::move(rec)); }

void Recorder::MarkUnsupported(const char* what) {
  if (unsupported_.empty()) unsupported_ = what;
}

namespace {

// Common prologue: keeps the operands alive and fills the shared fields.
TraceRecord Base(OpKind kind, std::initializer_list<const Tensor*> ins,
                 const Tensor& out) {
  Recorder* rec = g_recorder;
  TraceRecord r;
  r.kind = kind;
  for (const Tensor* t : ins) {
    rec->Keep(*t);
    r.in.push_back(t->data());
  }
  rec->Keep(out);
  r.out = out.data();
  r.out_numel = out.numel();
  return r;
}

}  // namespace

void RecordBinarySame(raw::Bin op, const Tensor& a, const Tensor& b,
                      const Tensor& out) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kBinary, {&a, &b}, out);
  r.sub = static_cast<int32_t>(op);
  r.d[0] = out.numel();
  g_recorder->Add(std::move(r));
}

void RecordBinaryBcast(raw::Bin op, const Tensor& a, const Tensor& b,
                       const Tensor& out, const Shape& oshape,
                       const Shape& sa, const Shape& sb) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kBinaryBcast, {&a, &b}, out);
  r.sub = static_cast<int32_t>(op);
  r.d[0] = out.numel();
  r.d[1] = static_cast<int64_t>(oshape.size());
  r.aux0 = ToVec(oshape);
  r.aux1 = ToVec(sa);
  r.aux2 = ToVec(sb);
  g_recorder->Add(std::move(r));
}

void RecordUnary(raw::Un op, float scalar, const Tensor& a,
                 const Tensor& out) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kUnary, {&a}, out);
  r.sub = static_cast<int32_t>(op);
  r.scalar = scalar;
  r.d[0] = out.numel();
  g_recorder->Add(std::move(r));
}

void RecordGemm(const Tensor& a, const Tensor& b, const Tensor& out,
                bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
                const GemmBatch& batch) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kGemm, {&a, &b}, out);
  r.trans_a = trans_a;
  r.trans_b = trans_b;
  r.d[0] = m;
  r.d[1] = n;
  r.d[2] = k;
  r.d[3] = batch.nbatch;
  r.d[4] = batch.num_b_mats;
  r.aux0.assign(batch.a_mat_index, batch.a_mat_index + batch.nbatch);
  r.aux1.assign(batch.b_mat_index, batch.b_mat_index + batch.nbatch);
  r.macs = batch.nbatch * m * n * k;
  g_recorder->Add(std::move(r));
}

void RecordQuantLinear(const Tensor& x, const Tensor& col_scale,
                       const Tensor& out, int64_t m, int64_t in_features,
                       int64_t out_features, const Int8PackedWeight* packed) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kQuantLinear, {&x, &col_scale}, out);
  r.d[0] = m;
  r.d[1] = in_features;
  r.d[2] = out_features;
  r.packed = packed;
  r.macs = m * out_features * in_features;
  g_recorder->Add(std::move(r));
}

void RecordPermute(const Tensor& in, const Tensor& out, const Shape& oshape,
                   const Shape& gather) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kPermute, {&in}, out);
  r.d[0] = out.numel();
  r.d[1] = static_cast<int64_t>(oshape.size());
  r.aux0 = ToVec(oshape);
  r.aux1 = ToVec(gather);
  g_recorder->Add(std::move(r));
}

void RecordSlice(const Tensor& in, const Tensor& out, int64_t outer,
                 int64_t mid, int64_t inner, int64_t start, int64_t len) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kSlice, {&in}, out);
  r.d[0] = outer;
  r.d[1] = mid;
  r.d[2] = inner;
  r.d[3] = start;
  r.d[4] = len;
  g_recorder->Add(std::move(r));
}

void RecordConcat(const std::vector<Tensor>& ins, const Tensor& out,
                  int64_t outer, int64_t mid_out, int64_t inner,
                  const std::vector<int64_t>& mids) {
  if (g_recorder == nullptr) return;
  TraceRecord r;
  r.kind = OpKind::kConcat;
  for (const Tensor& t : ins) {
    g_recorder->Keep(t);
    r.in.push_back(t.data());
  }
  g_recorder->Keep(out);
  r.out = out.data();
  r.out_numel = out.numel();
  r.d[0] = outer;
  r.d[1] = mid_out;
  r.d[2] = inner;
  r.aux0 = mids;
  g_recorder->Add(std::move(r));
}

void RecordReduction(OpKind kind, const Tensor& in, const Tensor& out,
                     int64_t outer, int64_t mid, int64_t inner) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(kind, {&in}, out);
  r.d[0] = outer;
  r.d[1] = mid;
  r.d[2] = inner;
  g_recorder->Add(std::move(r));
}

void RecordAddBiasAct(const Tensor& x, const Tensor& bias, const Tensor& out,
                      int64_t rows, int64_t c, FusedAct act) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kAddBiasAct, {&x, &bias}, out);
  r.sub = static_cast<int32_t>(act);
  r.d[0] = rows;
  r.d[1] = c;
  g_recorder->Add(std::move(r));
}

void RecordIndexSelect(const Tensor& in, const Tensor& out, int64_t outer,
                       int64_t mid, int64_t inner,
                       const std::vector<int64_t>& indices) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kIndexSelect, {&in}, out);
  r.d[0] = outer;
  r.d[1] = mid;
  r.d[2] = inner;
  r.d[3] = static_cast<int64_t>(indices.size());
  r.aux0 = indices;
  g_recorder->Add(std::move(r));
}

void RecordProbSparseMask(const Tensor& scores, const Tensor& mask,
                          int64_t b, int64_t s, int64_t u) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kProbSparseMask, {&scores}, mask);
  r.d[0] = b;
  r.d[1] = s;
  r.d[2] = u;
  g_recorder->Add(std::move(r));
}

void RecordTimeDelayAggregate(const Tensor& q, const Tensor& k,
                              const Tensor& v, const Tensor& out,
                              int64_t topk) {
  if (g_recorder == nullptr) return;
  TraceRecord r = Base(OpKind::kTimeDelayAggregate, {&q, &k, &v}, out);
  r.d[0] = q.size(0);
  r.d[1] = q.size(1);
  r.d[2] = q.size(2);
  r.d[3] = topk;
  g_recorder->Add(std::move(r));
}

void RecordAttention(const Tensor& q, const Tensor& k, const Tensor& v,
                     const Tensor* mask, const Tensor& out,
                     int64_t num_heads, float scale) {
  if (g_recorder == nullptr) return;
  TraceRecord r = mask != nullptr
                      ? Base(OpKind::kAttention, {&q, &k, &v, mask}, out)
                      : Base(OpKind::kAttention, {&q, &k, &v}, out);
  r.sub = mask != nullptr ? 1 : 0;
  r.scalar = scale;
  r.d[0] = q.size(0);
  r.d[1] = num_heads;
  r.d[2] = q.size(1);
  r.d[3] = k.size(1);
  r.d[4] = q.size(2) / num_heads;
  r.d[5] = v.size(2) / num_heads;
  r.macs = r.d[0] * r.d[1] * r.d[2] * r.d[3] * (r.d[4] + r.d[5]);
  g_recorder->Add(std::move(r));
}

void RecordUnsupported(const char* what) {
  if (g_recorder == nullptr) return;
  g_recorder->MarkUnsupported(what);
}

}  // namespace trace
}  // namespace lipformer
