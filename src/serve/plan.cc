#include "serve/plan.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "serve/arena.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/ops_raw.h"
#include "tensor/storage_pool.h"

namespace lipformer {
namespace serve {

namespace {

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Where a traced pointer lives in the compiled program.
struct Loc {
  bool is_const = false;
  int64_t vid = -1;          // activation value id
  const float* cptr = nullptr;  // constant data pointer
};

struct ValueInfo {
  int64_t numel = 0;
  int64_t def = -1;       // emitted-op index that writes it (-1: plan input)
  int64_t last_use = -1;  // last emitted-op index that reads it
  int64_t offset = -1;
};

// Identity-copy detection: a Permute whose gather strides match the
// contiguous row-major strides of the output shape (on all non-size-1
// dims) moves no data — e.g. a transpose that only reorders size-1
// dims.
bool PermuteIsIdentity(const std::vector<int64_t>& oshape,
                       const std::vector<int64_t>& gather) {
  int64_t stride = 1;
  for (int64_t d = static_cast<int64_t>(oshape.size()) - 1; d >= 0; --d) {
    if (oshape[d] != 1 && gather[d] != stride) return false;
    stride *= oshape[d];
  }
  return true;
}

bool RecordIsIdentity(const trace::TraceRecord& r) {
  switch (r.kind) {
    case trace::OpKind::kPermute:
      return PermuteIsIdentity(r.aux0, r.aux1);
    case trace::OpKind::kSlice:
      // Full-range slice: start == 0 and len == mid.
      return r.d[3] == 0 && r.d[4] == r.d[1];
    case trace::OpKind::kConcat:
      // Single input spanning the whole concat dim.
      return r.in.size() == 1 && !r.aux0.empty() && r.aux0[0] == r.d[1];
    default:
      return false;
  }
}

// Checks whether a Permute's output (oshape / gather strides over its
// input, see raw::PermuteCopy), read as one row-major [numel/cols, cols]
// matrix, is a separable gather of the permute's *input*:
// input_offset(r, c) == row_off[r] + col_off[c]. This holds whenever the
// row/column split lines up with output dimension boundaries (every row
// starts on a fresh innermost block), which covers plain transposes,
// head splits and the 4-D patch reshuffles alike; it fails when rows
// straddle an inner dimension (the offset is then not separable). Walks
// the full output index space with the gather odometer — compile-time
// only. col_off[0] is always 0.
bool TrySeparable(const std::vector<int64_t>& oshape,
                  const std::vector<int64_t>& gather, int64_t numel,
                  int64_t cols, std::vector<int64_t>* row_off,
                  std::vector<int64_t>* col_off) {
  if (cols <= 0 || numel <= 0 || numel % cols != 0) return false;
  const int64_t nd = static_cast<int64_t>(oshape.size());
  row_off->assign(numel / cols, 0);
  col_off->assign(cols, 0);
  std::vector<int64_t> coord(nd, 0);
  int64_t off = 0;
  for (int64_t idx = 0; idx < numel; ++idx) {
    const int64_t r = idx / cols;
    const int64_t c = idx % cols;
    if (c == 0) {
      (*row_off)[r] = off;
    } else if (r == 0) {
      (*col_off)[c] = off - (*row_off)[0];  // fixed before any r > 0 row
    }
    if (off != (*row_off)[r] + (*col_off)[c]) return false;
    for (int64_t d = nd - 1; d >= 0; --d) {
      off += gather[d];
      if (++coord[d] < oshape[d]) break;
      off -= oshape[d] * gather[d];
      coord[d] = 0;
    }
  }
  return true;
}

Status ValidateBitwise(const InferencePlan& plan, const Tensor& module_out,
                       const Tensor& input, const char* which) {
  Tensor plan_out = plan.Execute(input);
  if (!SameShape(plan_out.shape(), module_out.shape()) ||
      std::memcmp(plan_out.data(), module_out.data(),
                  static_cast<size_t>(module_out.numel()) *
                      sizeof(float)) != 0) {
    return Status::Internal(std::string("compiled plan is not bitwise "
                                        "identical to the module forward (") +
                            which + ")");
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<const InferencePlan>> InferencePlan::Compile(
    const ForwardFn& forward, const Tensor& sample_input,
    const Tensor& check_batch) {
  LIPF_CHECK(sample_input.dim() >= 1 && sample_input.size(0) == 1)
      << "plans trace one row, got " << ShapeToString(sample_input.shape());
  Shape check_row = check_batch.shape();
  LIPF_CHECK(!check_row.empty() && check_row[0] >= 2);
  check_row[0] = 1;
  LIPF_CHECK(SameShape(sample_input.shape(), check_row));

  auto plan = std::shared_ptr<InferencePlan>(new InferencePlan());
  plan->input_shape_ = sample_input.shape();

  // ---- Trace ----
  // The recorder stays alive through classification (FindKept resolves
  // constants against its kept set) and is destroyed before the second
  // validation run so that module forward is hook-free.
  auto recorder_holder = std::make_unique<trace::Recorder>();
  trace::Recorder& recorder = *recorder_holder;
  Tensor traced_out = forward(sample_input);
  if (!recorder.ok()) {
    return Status::Internal("model is not plan-compilable: op '" +
                            recorder.unsupported() +
                            "' has no plan op kind (tensor/op_trace.h)");
  }
  if (traced_out.dim() == 0 || traced_out.size(0) != 1) {
    return Status::Internal(
        "a plan serves one row at a time, but the forward maps one row to " +
        ShapeToString(traced_out.shape()));
  }
  plan->output_shape_ = traced_out.shape();

  // ---- Permute -> GEMM operand fusion decisions ----
  // A non-identity Permute consumed only by a GEMM operand is folded into
  // that GEMM's pack phase when the permuted view is a separable gather
  // (TrySeparable) — in the served models, the channel-independence
  // transposes and the 4-D patch reshuffle feeding the backbone GEMMs. The GEMM then packs straight
  // from the pre-permute source via the GemmBatch row-/column-offset
  // overrides; packing reads the same values in the same order, so the
  // result is bitwise identical, and the validation runs below gate any
  // mistake. The module forward cannot have this: it is a plan-only win.
  struct FusedView {
    const float* src = nullptr;    // the permute's input pointer
    std::vector<int64_t> row_off;  // per stored row, all positions/mats
    std::vector<int64_t> col_off;  // per stored column, shared
  };
  // Keyed by GEMM record address, one map per operand slot (A, B).
  std::unordered_map<const trace::TraceRecord*, FusedView> fused_slot[2];
  std::unordered_set<const float*> fused_outs;  // permute outputs removed
  {
    std::unordered_map<const float*, int64_t> uses;
    std::unordered_map<const float*, const trace::TraceRecord*> producer;
    for (const trace::TraceRecord& r : recorder.records()) {
      for (const float* p : r.in) ++uses[p];
      producer[r.out] = &r;
    }
    ++uses[traced_out.data()];  // the plan output counts as a consumer

    for (const trace::TraceRecord& g : recorder.records()) {
      if (g.kind != trace::OpKind::kGemm) continue;
      const int64_t m = g.d[0], n = g.d[1], k = g.d[2];
      for (int slot = 0; slot < 2; ++slot) {
        // A is read as row-major [m, k] matrices only when !trans_a.
        if (slot == 0 && g.trans_a) continue;
        auto pit = producer.find(g.in[slot]);
        if (pit == producer.end()) continue;
        const trace::TraceRecord& perm = *pit->second;
        if (perm.kind != trace::OpKind::kPermute) continue;
        if (RecordIsIdentity(perm)) continue;  // elided for free below
        if (uses[perm.out] != 1) continue;
        // The permute's input must itself be an activation (plan input or
        // another record's output): a fused view of a *constant* B would
        // bypass the dense compile-time prepack.
        if (perm.in[0] != sample_input.data() &&
            producer.find(perm.in[0]) == producer.end()) {
          continue;
        }
        const int64_t rows = slot == 0 ? m : (g.trans_b ? n : k);
        const int64_t cols = slot == 0 ? k : (g.trans_b ? k : n);
        std::vector<int64_t> row_off, col_off;
        if (!TrySeparable(perm.aux0, perm.aux1, perm.d[0], cols, &row_off,
                          &col_off)) {
          continue;
        }
        const int64_t total_rows = static_cast<int64_t>(row_off.size());
        if (rows <= 0 || total_rows % rows != 0) continue;
        const int64_t num_mats = total_rows / rows;
        FusedView fv;
        fv.src = perm.in[0];
        fv.col_off = std::move(col_off);
        bool ok = true;
        if (slot == 0) {
          // Resolve the a_mat_index indirection now: one run of m row
          // offsets per batch position (the GemmBatch contract).
          fv.row_off.resize(g.aux0.size() * static_cast<size_t>(rows));
          for (size_t bi = 0; bi < g.aux0.size() && ok; ++bi) {
            ok = g.aux0[bi] >= 0 && g.aux0[bi] < num_mats;
            if (ok) {
              std::copy(row_off.begin() + g.aux0[bi] * rows,
                        row_off.begin() + (g.aux0[bi] + 1) * rows,
                        fv.row_off.begin() + static_cast<int64_t>(bi) * rows);
            }
          }
        } else {
          // The pack phase reads stored matrix bm into slot bm, so the
          // fused value must hold exactly num_b_mats matrices in order.
          ok = num_mats == g.d[4];
          for (size_t bi = 0; bi < g.aux1.size() && ok; ++bi) {
            ok = g.aux1[bi] >= 0 && g.aux1[bi] < num_mats;
          }
          fv.row_off = std::move(row_off);
        }
        if (!ok) continue;
        fused_slot[slot].emplace(&g, std::move(fv));
        fused_outs.insert(perm.out);
      }
    }
  }

  // ---- Classify + elide + emit ----
  std::unordered_map<const float*, Loc> locs;
  std::vector<ValueInfo> values;
  values.push_back({sample_input.numel(), -1, -1, -1});  // vid 0: input
  locs[sample_input.data()] = Loc{false, 0, nullptr};

  auto resolve = [&](const float* p) -> Result<Loc> {
    auto it = locs.find(p);
    if (it != locs.end()) return it->second;
    Tensor kept = recorder.FindKept(p);
    if (kept.data() != p) {
      return Status::Internal(
          "traced operand does not correspond to any live tensor (op "
          "produced outside the recorded kernel set)");
    }
    plan->constants_.push_back(kept);
    plan->stats_.num_constants += 1;
    Loc loc;
    loc.is_const = true;
    loc.cptr = p;
    locs.emplace(p, loc);
    return loc;
  };

  for (const trace::TraceRecord& r : recorder.records()) {
    if (fused_outs.count(r.out) != 0) {
      // Permute folded into its consuming GEMM's pack phase: no op, no
      // arena value, and nothing else reads its output.
      plan->stats_.fused_gemm_operands += 1;
      continue;
    }
    const FusedView* fuse_a = nullptr;
    const FusedView* fuse_b = nullptr;
    if (r.kind == trace::OpKind::kGemm) {
      auto fa = fused_slot[0].find(&r);
      if (fa != fused_slot[0].end()) fuse_a = &fa->second;
      auto fb = fused_slot[1].find(&r);
      if (fb != fused_slot[1].end()) fuse_b = &fb->second;
    }

    std::vector<Loc> in_locs;
    in_locs.reserve(r.in.size());
    for (size_t j = 0; j < r.in.size(); ++j) {
      // A fused GEMM operand resolves to the permute's input instead.
      const float* p = j == 0 && fuse_a != nullptr   ? fuse_a->src
                       : j == 1 && fuse_b != nullptr ? fuse_b->src
                                                     : r.in[j];
      Result<Loc> loc = resolve(p);
      if (!loc.ok()) return loc.status();
      in_locs.push_back(loc.value());
    }

    if (RecordIsIdentity(r)) {
      // Alias the output to its (sole) input; no op, no arena value.
      locs[r.out] = in_locs[0];
      plan->stats_.num_elided += 1;
      continue;
    }

    const int64_t i = static_cast<int64_t>(plan->ops_.size());
    PlanOp op;
    op.kind = r.kind;
    op.sub = r.sub;
    op.scalar = r.scalar;
    op.trans_a = r.trans_a;
    op.trans_b = r.trans_b;
    std::copy(std::begin(r.d), std::end(r.d), op.d);
    op.aux0 = r.aux0;
    op.aux1 = r.aux1;
    op.aux2 = r.aux2;
    op.packed = r.packed;
    op.out_numel = r.out_numel;
    op.macs = r.macs;
    if (fuse_a != nullptr) {
      op.a_row_off = fuse_a->row_off;
      op.a_col_off = fuse_a->col_off;
    }
    if (fuse_b != nullptr) {
      op.b_row_off = fuse_b->row_off;
      op.b_col_off = fuse_b->col_off;
    }
    if (r.kind == trace::OpKind::kConcat) {
      // aux1 becomes the per-input slot offsets (prefix sums of mids).
      op.aux1.assign(r.aux0.size(), 0);
      int64_t off = 0;
      for (size_t j = 0; j < r.aux0.size(); ++j) {
        op.aux1[j] = off;
        off += r.aux0[j];
      }
    }
    for (const Loc& loc : in_locs) {
      if (loc.is_const) {
        op.in_const.push_back(loc.cptr);
        op.in_off.push_back(-1);
      } else {
        op.in_const.push_back(nullptr);
        op.in_off.push_back(loc.vid);  // vid now, rewritten to offset below
        values[loc.vid].last_use = i;
      }
    }

    if (r.kind == trace::OpKind::kQuantLinear) {
      // Quantization scratch rides in the op's a8/rs/c32 slots as vids
      // until the final vid->offset rewrite — the epilogue pass below
      // moves and deletes ops, so a side vector indexed by op position
      // would go stale.
      const int64_t m = r.d[0], in_f = r.d[1], out_f = r.d[2];
      op.a8_off = static_cast<int64_t>(values.size());
      values.push_back({CeilDiv(m * in_f, 4), i, i, -1});
      op.rs_off = static_cast<int64_t>(values.size());
      values.push_back({m, i, i, -1});
      op.c32_off = static_cast<int64_t>(values.size());
      values.push_back({m * out_f, i, i, -1});
    }

    const int64_t out_vid = static_cast<int64_t>(values.size());
    values.push_back({r.out_numel, i, i, -1});
    locs[r.out] = Loc{false, out_vid, nullptr};
    op.out_off = out_vid;  // vid now, rewritten to offset below
    plan->ops_.push_back(std::move(op));
  }

  plan->stats_.num_traced =
      static_cast<int64_t>(recorder.records().size());

  // ---- Output location ----
  int64_t output_vid = -1;
  {
    Result<Loc> loc = resolve(traced_out.data());
    if (!loc.ok()) {
      return Status::Internal(
          "the model output was not produced by a recorded kernel");
    }
    const Loc& l = loc.value();
    if (l.is_const) {
      plan->output_const_ = l.cptr;
    } else if (l.vid == 0) {
      plan->output_is_input_ = true;
    } else {
      output_vid = l.vid;
    }
  }

  // ---- Fusion (DESIGN.md §11 "Fusion pass") ----
  // One rewrite over the SSA op list, gated by the bitwise validation
  // runs below exactly like every other compile-time transform.
  int64_t epilogue_absorbed = 0;

  {
    // ---- GEMM epilogue fusion ----
    // A GEMM (fp32 or quantized) absorbs its sole consumer when that is
    // the bias+activation pass the module forward runs right after it
    // (kAddBiasAct over the same rows/cols), and then — or instead — a
    // same-shape residual kBinary. The epilogue runs per cache-hot C
    // region inside the GEMM (raw::GemmEpilogueRows), so the separate
    // full-tensor passes disappear. The fused op takes the absorbed
    // consumer's position: every epilogue operand was already defined
    // there, and nothing else read the absorbed output (uses == 1), so
    // delaying the def is safe under SSA.
    std::vector<int64_t> uses(values.size(), 0);
    for (const PlanOp& op : plan->ops_) {
      for (size_t j = 0; j < op.in_off.size(); ++j) {
        if (op.in_const[j] == nullptr) ++uses[op.in_off[j]];
      }
    }
    const int64_t n0 = static_cast<int64_t>(plan->ops_.size());
    std::vector<bool> dead(plan->ops_.size(), false);
    for (int64_t i = 0; i < n0; ++i) {
      if (dead[i]) continue;
      PlanOp& g = plan->ops_[i];
      const bool is_gemm = g.kind == trace::OpKind::kGemm;
      if (!is_gemm && g.kind != trace::OpKind::kQuantLinear) continue;
      if (g.ep_has_res) continue;  // epilogue already complete
      const int64_t cols = is_gemm ? g.d[1] : g.d[2];
      const int64_t out_vid = g.out_off;
      if (out_vid == output_vid || uses[out_vid] != 1) continue;
      // Locate the sole consumer (O(n) scan; programs are ~100 ops).
      int64_t j = -1;
      for (int64_t c = i + 1; c < n0 && j < 0; ++c) {
        if (dead[c]) continue;
        const PlanOp& cand = plan->ops_[c];
        for (size_t s = 0; s < cand.in_off.size(); ++s) {
          if (cand.in_const[s] == nullptr && cand.in_off[s] == out_vid) {
            j = c;
            break;
          }
        }
      }
      if (j < 0) continue;  // consumed via an epilogue slot: leave as is
      const PlanOp& cons = plan->ops_[j];
      PlanOp fused;
      if (!g.ep_has_bias && cons.kind == trace::OpKind::kAddBiasAct &&
          cons.in_const[0] == nullptr && cons.in_off[0] == out_vid &&
          cons.d[1] == cols && cons.d[0] * cons.d[1] == g.out_numel) {
        fused = std::move(g);
        fused.ep_has_bias = true;
        fused.ep_bias_const = cons.in_const[1];
        fused.ep_bias_off = cons.in_off[1];
        fused.ep_act = cons.sub;
      } else if (cons.kind == trace::OpKind::kBinary &&
                 cons.d[0] == g.out_numel) {
        // Exactly one operand is the GEMM output (uses == 1 already
        // rules out gemm_out (+) gemm_out); the other is the residual.
        const int res_slot =
            cons.in_const[0] == nullptr && cons.in_off[0] == out_vid ? 1
                                                                     : 0;
        fused = std::move(g);
        fused.ep_has_res = true;
        fused.ep_res_const = cons.in_const[res_slot];
        fused.ep_res_off = cons.in_off[res_slot];
        fused.ep_res_op = cons.sub;
        fused.ep_res_is_lhs = res_slot == 0;
      } else {
        continue;
      }
      fused.out_off = cons.out_off;
      fused.out_numel = cons.out_numel;
      dead[i] = true;
      plan->ops_[j] = std::move(fused);
      ++epilogue_absorbed;
      // The loop revisits position j later (j > i), where a bias-fused
      // GEMM gets its chance to absorb a residual as well.
    }
    std::vector<PlanOp> kept;
    kept.reserve(plan->ops_.size());
    for (size_t idx = 0; idx < plan->ops_.size(); ++idx) {
      if (!dead[idx]) kept.push_back(std::move(plan->ops_[idx]));
    }
    plan->ops_ = std::move(kept);
  }

  // ---- Liveness -> arena offsets ----
  // Recomputed from scratch over the fused op list: vids whose defining
  // op was fused away stay at def == -1 and get no arena slot.
  const int64_t num_ops = static_cast<int64_t>(plan->ops_.size());
  auto use = [&](int64_t vid, int64_t at) {
    values[vid].last_use = std::max(values[vid].last_use, at);
  };
  for (ValueInfo& v : values) v = {v.numel, -1, -1, -1};
  for (int64_t i = 0; i < num_ops; ++i) {
    const PlanOp& op = plan->ops_[i];
    for (size_t j = 0; j < op.in_off.size(); ++j) {
      if (op.in_const[j] == nullptr) use(op.in_off[j], i);
    }
    values[op.out_off].def = i;
    if (op.kind == trace::OpKind::kQuantLinear) {
      for (int64_t vid : {op.a8_off, op.rs_off, op.c32_off}) {
        values[vid].def = i;
        values[vid].last_use = i;
      }
    }
    if (op.ep_has_bias && op.ep_bias_const == nullptr) {
      use(op.ep_bias_off, i);
    }
    if (op.ep_has_res && op.ep_res_const == nullptr) {
      use(op.ep_res_off, i);
    }
  }
  // The program output (or aliased input) must survive the program.
  if (output_vid >= 0) values[output_vid].last_use = num_ops;
  if (plan->output_is_input_) values[0].last_use = num_ops;
  {
    ArenaLayout layout;
    // Per-step alloc/free schedules. Values are allocated at their def
    // step before that step frees anything, so an op's output can never
    // overlap its (still-live) inputs — raw kernels forbid aliasing.
    std::vector<std::vector<int64_t>> defs(num_ops + 1);
    std::vector<std::vector<int64_t>> frees(num_ops + 1);
    for (size_t v = 0; v < values.size(); ++v) {
      if (values[v].def < 0 && v != 0) continue;  // fused away
      // A never-read output still gets space (its op writes it); its
      // interval collapses to the def step.
      const int64_t last = std::max(values[v].last_use, values[v].def);
      defs[values[v].def + 1].push_back(static_cast<int64_t>(v));
      if (last >= 0 && last < num_ops) {
        frees[last + 1].push_back(static_cast<int64_t>(v));
      }
    }
    // Step s handles defs of op s-1's output (and scratch); step 0 is the
    // plan input. Frees at step s release values last read by op s-1.
    for (int64_t step = 0; step <= num_ops; ++step) {
      for (int64_t v : defs[step]) {
        values[v].offset = layout.Alloc(values[v].numel);
      }
      for (int64_t v : frees[step]) {
        layout.Free(values[v].offset, values[v].numel);
      }
    }
    plan->arena_floats_ = std::max<int64_t>(1, layout.end());
  }
  plan->stats_.arena_bytes = plan->arena_floats_ * sizeof(float);
  plan->stats_.num_ops = num_ops;
  // Every absorbed op was one full read(+read)+write sweep over the
  // tensor.
  plan->stats_.passes_eliminated = epilogue_absorbed;
  for (const PlanOp& op : plan->ops_) {
    if (op.ep_has_bias || op.ep_has_res) plan->stats_.fused_epilogues += 1;
    plan->stats_.macs += op.macs;
  }

  if (values[0].last_use >= 0 || plan->output_is_input_) {
    plan->input_off_ = values[0].offset;
  }
  if (output_vid >= 0) plan->output_off_ = values[output_vid].offset;

  // Rewrite vid references to offsets.
  for (PlanOp& op : plan->ops_) {
    for (size_t j = 0; j < op.in_off.size(); ++j) {
      if (op.in_const[j] == nullptr) {
        op.in_off[j] = values[op.in_off[j]].offset;
      }
    }
    op.out_off = values[op.out_off].offset;
    if (op.kind == trace::OpKind::kQuantLinear) {
      op.a8_off = values[op.a8_off].offset;
      op.rs_off = values[op.rs_off].offset;
      op.c32_off = values[op.c32_off].offset;
    }
    if (op.ep_has_bias && op.ep_bias_const == nullptr) {
      op.ep_bias_off = values[op.ep_bias_off].offset;
    }
    if (op.ep_has_res && op.ep_res_const == nullptr) {
      op.ep_res_off = values[op.ep_res_off].offset;
    }
  }

  // ---- Prepack constant fp32 GEMM weights ----
  for (PlanOp& op : plan->ops_) {
    if (op.kind != trace::OpKind::kGemm || op.in_const[1] == nullptr) {
      continue;
    }
    const int64_t n = op.d[1], k = op.d[2], num_b = op.d[4];
    const int64_t per_mat = PackedGemmBSize(n, k);
    plan->prepacked_.emplace_back(
        static_cast<size_t>(num_b * per_mat));
    std::vector<float>& buf = plan->prepacked_.back();
    for (int64_t bm = 0; bm < num_b; ++bm) {
      PackGemmB(op.in_const[1] + bm * k * n, op.trans_b, n, k,
                buf.data() + bm * per_mat);
    }
    op.prepacked_b = buf.data();
    plan->stats_.prepacked_gemms += 1;
  }

  // ---- Validate: bitwise equality on the trace input, on a second,
  // different row, and on a batch of distinct rows. The second row catches
  // any input-dependent value that escaped tracing and was wrongly frozen
  // as a constant — such a plan reproduces the traced forward exactly but
  // diverges on fresh data. The batch runs row by row, so it catches a
  // forward whose rows interact (a reduction over the batch dim, say).
  // (Execute itself never records: the raw kernels carry no hooks.)
  LIPF_RETURN_IF_ERROR(
      ValidateBitwise(*plan, traced_out, sample_input, "trace input"));
  recorder_holder.reset();  // hook-free module runs below
  const Tensor fresh = Slice(check_batch, 0, 0, 1);
  LIPF_RETURN_IF_ERROR(
      ValidateBitwise(*plan, forward(fresh), fresh, "fresh input"));
  LIPF_RETURN_IF_ERROR(ValidateBitwise(
      *plan, forward(check_batch), check_batch,
      "a batch served row by row: the forward mixes rows"));
  return std::shared_ptr<const InferencePlan>(plan);
}

Tensor InferencePlan::Execute(const Tensor& input) const {
  Shape row_shape = input.shape();
  const int64_t rows = row_shape.empty() ? 0 : row_shape[0];
  if (rows > 0) row_shape[0] = 1;
  LIPF_CHECK(rows > 0 && SameShape(row_shape, input_shape_))
      << "plan serves rows of " << ShapeToString(input_shape_) << ", got "
      << ShapeToString(input.shape());
  executions_.fetch_add(1, std::memory_order_relaxed);

  Shape out_shape = output_shape_;
  out_shape[0] = rows;
  Tensor out = Tensor::Empty(out_shape);
  const int64_t in_row = input.numel() / rows;
  const int64_t out_row = out.numel() / rows;
  PlanProfile* profile =
      profiling_.load(std::memory_order_relaxed) ? &profile_ : nullptr;
  // Each thread leases one pooled slab for its run of rows — the only
  // allocation on this path. At b >= 2 a row's kernels run inline on its
  // thread (nested ParallelFor); a lone row gets the whole pool.
  ParallelFor(rows, 1, [&](int64_t begin, int64_t end) {
    Storage slab = Storage::Acquire(arena_floats_);
    float* base = slab.data();
    for (int64_t r = begin; r < end; ++r) {
      if (input_off_ >= 0) {
        std::memcpy(base + input_off_, input.data() + r * in_row,
                    static_cast<size_t>(in_row) * sizeof(float));
      }
      ExecutePlanProgram(ops_, base, profile);
      const float* src = output_const_ != nullptr
                             ? output_const_
                             : base + (output_is_input_ ? input_off_
                                                        : output_off_);
      std::memcpy(out.data() + r * out_row, src,
                  static_cast<size_t>(out_row) * sizeof(float));
    }
  });
  return out;
}

std::vector<PlanOpTiming> InferencePlan::OpTimings() const {
  std::vector<PlanOpTiming> out;
  for (int k = 0; k < static_cast<int>(trace::OpKind::kNumKinds); ++k) {
    const int64_t calls = profile_.calls[k].load(std::memory_order_relaxed);
    if (calls == 0) continue;
    PlanOpTiming t;
    t.name = trace::OpKindName(static_cast<trace::OpKind>(k));
    t.calls = calls;
    t.total_ns = profile_.ns[k].load(std::memory_order_relaxed);
    out.push_back(t);
  }
  return out;
}

}  // namespace serve
}  // namespace lipformer
