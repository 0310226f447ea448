#include "serve/plan_exec.h"

#include <chrono>

#include "common/logging.h"
#include "nn/linear.h"
#include "tensor/gemm.h"
#include "tensor/ops.h"
#include "tensor/ops_raw.h"

namespace lipformer {
namespace serve {

namespace {

inline void RunOp(const PlanOp& op, float* base) {
  // Operand resolution is two loads per input: constant pointer or arena
  // offset, both decided at compile time.
  auto in = [&](size_t i) -> const float* {
    const float* c = op.in_const[i];
    return c != nullptr ? c : base + op.in_off[i];
  };
  float* out = base + op.out_off;

  // Fused-epilogue resolution for kGemm / kQuantLinear: rebuild the
  // GemmEpilogue view against this arena. Cheap (a few loads) and only
  // materialized when the compile pass fused something.
  GemmEpilogue epi_storage;
  const GemmEpilogue* epi = nullptr;
  if (op.ep_has_bias || op.ep_has_res) {
    if (op.ep_has_bias) {
      epi_storage.bias = op.ep_bias_const != nullptr
                             ? op.ep_bias_const
                             : base + op.ep_bias_off;
      epi_storage.act = op.ep_act;
    }
    if (op.ep_has_res) {
      epi_storage.residual = op.ep_res_const != nullptr
                                 ? op.ep_res_const
                                 : base + op.ep_res_off;
      epi_storage.res_op = op.ep_res_op;
      epi_storage.res_is_lhs = op.ep_res_is_lhs;
    }
    epi = &epi_storage;
  }

  switch (op.kind) {
    case trace::OpKind::kBinary:
      raw::BinarySame(static_cast<raw::Bin>(op.sub), in(0), in(1), out,
                      op.d[0]);
      return;
    case trace::OpKind::kBinaryBcast:
      raw::BinaryBcast(static_cast<raw::Bin>(op.sub), in(0), in(1), out,
                       op.aux0.data(), op.aux1.data(), op.aux2.data(),
                       op.d[1], op.d[0]);
      return;
    case trace::OpKind::kUnary:
      raw::Unary(static_cast<raw::Un>(op.sub), op.scalar, in(0), out,
                 op.d[0]);
      return;
    case trace::OpKind::kGemm: {
      GemmBatch batch;
      batch.nbatch = op.d[3];
      batch.a_mat_index = op.aux0.data();
      batch.b_mat_index = op.aux1.data();
      batch.num_b_mats = op.d[4];
      if (!op.a_row_off.empty()) {
        batch.a_row_offset = op.a_row_off.data();
        batch.a_col_offset = op.a_col_off.data();
      }
      if (!op.b_row_off.empty()) {
        batch.b_row_offset = op.b_row_off.data();
        batch.b_col_offset = op.b_col_off.data();
      }
      if (op.prepacked_b != nullptr) {
        PackedGemmBatchedPrepacked(in(0), op.trans_a, op.prepacked_b, out,
                                   op.d[0], op.d[1], op.d[2], batch, epi);
      } else {
        PackedGemmBatched(in(0), op.trans_a, in(1), op.trans_b, out,
                          op.d[0], op.d[1], op.d[2], batch, epi);
      }
      AddMacCount(op.macs);
      return;
    }
    case trace::OpKind::kQuantLinear:
      QuantLinearForward(in(0), op.d[0], op.d[1], op.d[2], *op.packed,
                         in(1), reinterpret_cast<int8_t*>(base + op.a8_off),
                         base + op.rs_off,
                         reinterpret_cast<int32_t*>(base + op.c32_off), out,
                         epi);
      return;
    case trace::OpKind::kPermute:
      raw::PermuteCopy(in(0), out, op.aux0.data(), op.aux1.data(), op.d[1],
                       op.d[0]);
      return;
    case trace::OpKind::kSlice:
      raw::SliceCopy(in(0), out, op.d[0], op.d[1], op.d[2], op.d[3],
                     op.d[4]);
      return;
    case trace::OpKind::kConcat:
      for (size_t i = 0; i < op.in_const.size(); ++i) {
        raw::ConcatCopyOne(in(i), out, op.d[0], op.aux0[i], op.d[1],
                           op.aux1[i], op.d[2]);
      }
      return;
    case trace::OpKind::kSum:
      raw::SumDim(in(0), out, op.d[0], op.d[1], op.d[2]);
      return;
    case trace::OpKind::kSoftmax:
      raw::SoftmaxDim(in(0), out, op.d[0], op.d[1], op.d[2]);
      return;
    case trace::OpKind::kAddBiasAct:
      raw::AddBiasActRows(in(0), in(1), out, op.d[0], op.d[1],
                          static_cast<FusedAct>(op.sub));
      return;
    case trace::OpKind::kIndexSelect:
      raw::IndexSelectCopy(in(0), out, op.d[0], op.d[1], op.d[2],
                           op.aux0.data(), op.d[3]);
      return;
    case trace::OpKind::kProbSparseMask:
      raw::ProbSparseMaskRows(in(0), out, op.d[0], op.d[1], op.d[2]);
      return;
    case trace::OpKind::kTimeDelayAggregate:
      raw::TimeDelayAggregateRows(in(0), in(1), in(2), out, op.d[0], op.d[1],
                                  op.d[2], op.d[3], nullptr, nullptr);
      return;
    case trace::OpKind::kAttention:
      raw::AttentionRows(in(0), in(1), in(2), out, nullptr, op.d[0],
                         op.d[1], op.d[2], op.d[3], op.d[4], op.d[5],
                         op.scalar, op.sub != 0 ? in(3) : nullptr);
      AddMacCount(op.macs);
      return;
    case trace::OpKind::kScaledMaskedSoftmax:  // never emitted
    case trace::OpKind::kBroadcastMid:         // never emitted
    case trace::OpKind::kFusedChain:           // never emitted
    case trace::OpKind::kNumKinds:
      break;
  }
  LIPF_CHECK(false) << "unexecutable plan op kind";
}

}  // namespace

void ExecutePlanProgram(const std::vector<PlanOp>& ops, float* base,
                        PlanProfile* profile) {
  if (profile == nullptr) {
    for (const PlanOp& op : ops) RunOp(op, base);
    return;
  }
  for (const PlanOp& op : ops) {
    const auto t0 = std::chrono::steady_clock::now();
    RunOp(op, base);
    const auto t1 = std::chrono::steady_clock::now();
    const int k = static_cast<int>(op.kind);
    profile->calls[k].fetch_add(1, std::memory_order_relaxed);
    profile->ns[k].fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count(),
        std::memory_order_relaxed);
  }
}

}  // namespace serve
}  // namespace lipformer
