#ifndef LIPFORMER_SERVE_PLAN_EXEC_H_
#define LIPFORMER_SERVE_PLAN_EXEC_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "tensor/gemm_int8.h"
#include "tensor/op_trace.h"

// Execution of compiled inference plans (serve/plan.h). A plan is a flat
// std::vector<PlanOp>; every operand location was resolved at compile
// time to either a float offset into the per-request activation arena or
// a raw pointer into plan-owned constant storage. ExecutePlanProgram is a
// single pass over the vector calling the raw kernels (tensor/ops_raw.h),
// the packed GEMMs (tensor/gemm.h) and the quantized linear
// (nn/linear.h) directly: no shape checks, no virtual dispatch, no
// storage-pool traffic, no autograd guards.
//
// The program and its constants are immutable after compilation, and the
// arena base is the only mutable state, so any number of threads may
// execute the same program concurrently against distinct arenas.

namespace lipformer {
namespace serve {

// One compiled op. Dim slots d[] follow trace::TraceRecord exactly (see
// tensor/op_trace.h); aux slots are kind-specific:
//   kBinaryBcast: aux0=oshape aux1=sa aux2=sb
//   kGemm:        aux0=a_mat_index aux1=b_mat_index
//   kPermute:     aux0=oshape aux1=gather
//   kConcat:      aux0=per-input mids, aux1=per-input slot offsets
//   kIndexSelect: aux0=indices
struct PlanOp {
  trace::OpKind kind = trace::OpKind::kBinary;
  int32_t sub = 0;
  float scalar = 0.0f;
  bool trans_a = false;
  bool trans_b = false;
  int64_t d[6] = {0, 0, 0, 0, 0, 0};
  std::vector<int64_t> aux0, aux1, aux2;

  // kGemm with a Permute fused into the pack phase (serve/plan.cc): when
  // non-empty, stored element (r, c) of batch position bi's A matrix is
  // read from input 0 at a_row_off[bi * m + r] + a_col_off[c] instead of
  // the dense layout; b_row_off / b_col_off do the same per stored B
  // matrix (GemmBatch separable-gather overrides).
  std::vector<int64_t> a_row_off, a_col_off, b_row_off, b_col_off;

  // Input i reads from in_const[i] when non-null, else from
  // arena + in_off[i]. Output always writes into the arena.
  std::vector<const float*> in_const;
  std::vector<int64_t> in_off;
  int64_t out_off = 0;
  int64_t out_numel = 0;

  // kQuantLinear: prepacked int8 weight (owned by the session's model)
  // plus arena scratch offsets for the row-quantized activations, row
  // scales, and int32 accumulator.
  const Int8PackedWeight* packed = nullptr;
  int64_t a8_off = 0;
  int64_t rs_off = 0;
  int64_t c32_off = 0;

  // kGemm with a constant B operand: panels packed once at compile time
  // (PackGemmB) into plan-owned storage; executes via
  // PackedGemmBatchedPrepacked. Null -> B is an activation and the op
  // packs per call like the module forward.
  const float* prepacked_b = nullptr;

  // Fused GEMM epilogue (kGemm and kQuantLinear): bias + activation
  // and/or a residual binary applied per cache-hot C region by the GEMM
  // itself (GemmEpilogue, tensor/gemm.h) instead of as separate passes.
  // Each operand is a constant pointer or (when null) an arena offset.
  bool ep_has_bias = false;
  bool ep_has_res = false;
  const float* ep_bias_const = nullptr;
  int64_t ep_bias_off = -1;
  int32_t ep_act = 0;  // FusedAct
  const float* ep_res_const = nullptr;
  int64_t ep_res_off = -1;
  int32_t ep_res_op = 0;  // raw::Bin
  bool ep_res_is_lhs = false;

  // MAC charge of kGemm / kQuantLinear / kAttention. The executor adds it
  // to the MAC counter for kGemm and kAttention; QuantLinearForward
  // charges its own.
  int64_t macs = 0;
};

// Per-kind execution counters, aggregated across all arenas sharing the
// program. Written only when a profile is passed to ExecutePlanProgram
// (timing costs two clock reads per op, so the serving hot path passes
// nullptr unless stats were requested).
struct PlanProfile {
  std::atomic<int64_t> calls[static_cast<int>(trace::OpKind::kNumKinds)] = {};
  std::atomic<int64_t> ns[static_cast<int>(trace::OpKind::kNumKinds)] = {};
};

// Runs every op against the arena at `base`. The caller owns the arena
// and has already written the plan input into it.
void ExecutePlanProgram(const std::vector<PlanOp>& ops, float* base,
                        PlanProfile* profile);

}  // namespace serve
}  // namespace lipformer

#endif  // LIPFORMER_SERVE_PLAN_EXEC_H_
