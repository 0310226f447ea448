#ifndef LIPFORMER_TENSOR_GEMM_H_
#define LIPFORMER_TENSOR_GEMM_H_

#include <cstdint>

// Cache-blocked, register-tiled batched GEMM used by MatMul and its
// transpose-free variants (tensor/ops.h). The kernel packs B into
// contiguous kGemmNR-wide column panels (built once per distinct B matrix
// and shared read-only across pool workers), packs A into kGemmMR-row
// micro-panels per MC x KC block, and drives a kGemmMR x kGemmNR
// register-tile micro-kernel over MC/KC/NC cache blocks.
//
// Determinism contract (see DESIGN.md "Kernel architecture"): every output
// element accumulates its k products in the same order regardless of
// thread count or blocking — KC blocks ascending, then sequentially within
// a block — and each output row is written by exactly one ParallelFor
// chunk whose boundaries are a function of shape only. Outputs are
// therefore bitwise identical at every thread count. They may differ from
// a plain ikj loop in the last bits (FMA contraction), which is why tests
// compare against MatMulReference with AllClose rather than memcmp.

namespace lipformer {

// Blocking parameters. kGemmMC must be a multiple of kGemmMR and kGemmNC a
// multiple of kGemmNR. Retuning: see DESIGN.md — the invariants are
// (a) a packed B sub-panel (kGemmKC x kGemmNR floats) fits in L1,
// (b) a packed A block (kGemmMC x kGemmKC floats) fits in L2,
// (c) kGemmMR x kGemmNR accumulators fit in the vector register file.
inline constexpr int64_t kGemmMR = 4;
inline constexpr int64_t kGemmNR = 16;
inline constexpr int64_t kGemmMC = 128;
inline constexpr int64_t kGemmKC = 256;
inline constexpr int64_t kGemmNC = 4096;

// Batch bookkeeping for a broadcast batched GEMM. The index arrays map a
// broadcast batch position bi to the matrix actually stored in each
// operand (a broadcast operand repeats indices).
struct GemmBatch {
  int64_t nbatch = 1;                    // broadcast batch count
  const int64_t* a_mat_index = nullptr;  // [nbatch] matrix index into a
  const int64_t* b_mat_index = nullptr;  // [nbatch] matrix index into b
  int64_t num_b_mats = 1;                // distinct matrices stored in b
  // Separable-gather overrides, used by AOT plans to fold a transpose
  // copy into the pack phase. When set (always in row/col pairs), stored
  // element (r, c) of the matrix for batch position bi is read from
  //   a[a_row_offset[bi * rows + r] + a_col_offset[c]]
  // instead of the dense layout, where rows x cols are the STORED dims
  // ([m, k], or [k, m] under trans_a; a_row_offset covers all nbatch
  // positions, already resolved through a_mat_index). b_row_offset /
  // b_col_offset do the same for the stored B matrix packed into each
  // slot bm (b_row_offset is [num_b_mats * rows]). Packing reads
  // identical values in identical order, so results stay bitwise equal
  // to packing a dense transpose copy. A gather on A requires !trans_a.
  const int64_t* a_row_offset = nullptr;
  const int64_t* a_col_offset = nullptr;
  const int64_t* b_row_offset = nullptr;
  const int64_t* b_col_offset = nullptr;
};

// Optional fused epilogue applied to each C region right after its final
// KC depth block completes, while the region is still cache hot: bias add
// + activation (act(c + bias[j]), the AddBiasActRows semantics) and/or a
// residual elementwise binary against a tensor with C's exact layout
// ([nbatch, m, n]). The AOT plan compiler (serve/plan.cc) uses this to
// collapse GEMM + AddBiasAct (+ residual Binary) into one op with zero
// extra passes over C; element semantics are shared with the unfused
// kernels (raw::GemmEpilogueRows), so results stay bitwise identical.
// `act` is a FusedAct (tensor/ops.h), `res_op` a raw::Bin (ops_raw.h) —
// int32 here to keep this header dependency-free.
struct GemmEpilogue {
  const float* bias = nullptr;      // [n], null: no bias/activation stage
  int32_t act = 0;                  // FusedAct applied with the bias
  const float* residual = nullptr;  // [nbatch * m * n], null: no residual
  int32_t res_op = 0;               // raw::Bin for the residual stage
  bool res_is_lhs = false;          // residual is the binary's left operand
  bool enabled() const { return bias != nullptr || residual != nullptr; }
};

// c[bi] = opA(a[batch.a_mat_index[bi]]) * opB(b[batch.b_mat_index[bi]]),
// where opX transposes the stored matrix when trans_x is set. Stored
// shapes per matrix: a is [m, k] (or [k, m] if trans_a), b is [k, n] (or
// [n, k] if trans_b), c is [m, n]. Runs on the shared thread pool. A
// non-null `epi` is applied per cache-hot C region (see GemmEpilogue).
void PackedGemmBatched(const float* a, bool trans_a, const float* b,
                       bool trans_b, float* c, int64_t m, int64_t n,
                       int64_t k, const GemmBatch& batch,
                       const GemmEpilogue* epi = nullptr);

// Floats occupied by one [k, n] B matrix in packed-panel form
// (ceil(n / kGemmNR) zero-padded panels of k * kGemmNR floats each).
inline constexpr int64_t PackedGemmBSize(int64_t n, int64_t k) {
  return ((n + kGemmNR - 1) / kGemmNR) * k * kGemmNR;
}

// Packs every column panel of one stored B matrix ([k, n], or [n, k] when
// trans_b) into dst (PackedGemmBSize(n, k) floats) — the exact layout
// PackedGemmBatched builds internally on every call. Pure data movement;
// the AOT plan compiler (serve/plan.cc) runs this once per constant
// weight matrix at compile time. Serial (compile-time only, not hot).
void PackGemmB(const float* b, bool trans_b, int64_t n, int64_t k,
               float* dst);

// Compute phase of PackedGemmBatched against B panels already packed by
// PackGemmB: packed_b holds batch.num_b_mats consecutive packed matrices
// (batch.b_mat_index selects among them). Bitwise identical to
// PackedGemmBatched on the same operands — it is the same compute loop,
// minus the per-call packing.
void PackedGemmBatchedPrepacked(const float* a, bool trans_a,
                                const float* packed_b, float* c, int64_t m,
                                int64_t n, int64_t k, const GemmBatch& batch,
                                const GemmEpilogue* epi = nullptr);

}  // namespace lipformer

#endif  // LIPFORMER_TENSOR_GEMM_H_
