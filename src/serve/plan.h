#ifndef LIPFORMER_SERVE_PLAN_H_
#define LIPFORMER_SERVE_PLAN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "serve/plan_exec.h"
#include "tensor/tensor.h"

// Ahead-of-time inference plans. Serving shapes are static per bundle, so
// InferenceSession traces the model's forward ONCE, for a single input row
// ([1, ...]), and compiles the trace into a flat op program plus a
// preplanned activation arena. That one program serves every batch size:
// forecast windows never interact, so a batch runs it once per row.
//
//   * Trace. A trace::Recorder (tensor/op_trace.h) captures every forward
//     kernel invocation with its resolved dims and operand pointers.
//     Values are identified by data pointer; the recorder keeps every
//     operand Tensor alive so the storage pool cannot recycle a pointer
//     mid-trace. Storage-sharing views (Reshape/Squeeze/Unsqueeze,
//     eval-mode Dropout) keep the pointer and need no records.
//   * Classify. An operand produced by an earlier record (or the plan
//     input) is an activation; anything else is a constant — weights,
//     attention masks, the zero time-feature tensors the session builds —
//     and the plan takes ownership of its Tensor so the pointer stays
//     valid for the plan's lifetime.
//   * Elide. Identity copies (full-range Slice, layout-preserving Permute
//     such as a transpose that only moves size-1 dims, single-input
//     Concat) are removed at compile time by aliasing output to input.
//   * Fuse. A non-identity Permute whose only consumer is a GEMM operand
//     is folded into that GEMM's pack phase when the permuted view is a
//     separable gather (offset(row, col) == row_off[row] + col_off[col])
//     — e.g. the channel-independence transposes and the 4-D patch
//     reshuffle. The pack reads the pre-permute source directly
//     (GemmBatch row/column offset overrides), writing identical panel
//     bytes, so the transpose copy disappears from the program with
//     bitwise-identical results.
//   * Arena. Each activation gets a [def, last_use] interval; a first-fit
//     allocator with hole coalescing lays all of them out in one slab
//     (offsets 64-byte aligned). Execution leases one pooled slab per
//     concurrently running row — every intermediate of the forward costs
//     zero pool lookups.
//   * Prepack. Constant B operands of fp32 GEMMs are packed into panel
//     layout once at compile time (PackGemmB); the hot path runs the
//     compute phase only. Quantized Linears keep their prepacked int8
//     weights and get arena scratch for activation quantization.
//   * Validate. The compiled program is executed against the module
//     forward on the trace input, on a second, different row, and on a
//     batch of 3 distinct rows served row by row; outputs must match
//     bitwise (memcmp). The second row catches any input-dependent value
//     that escaped tracing and was wrongly frozen as a constant; the
//     batch catches a forward whose rows interact, which row-by-row
//     execution cannot serve. Ops the plan has no kind for
//     (tensor/op_trace.h) poison the trace outright. Every failure is a
//     typed error, which the session reports instead of serving.
//
// Plans are immutable after Compile and shareable across threads: the
// only per-request state is the leased arena.

namespace lipformer {
namespace serve {

// Compile-time facts about one plan, for stats output and tests.
struct PlanStats {
  int64_t num_ops = 0;          // executable records
  int64_t num_traced = 0;       // records captured by the trace
  int64_t num_elided = 0;       // identity copies removed
  int64_t fused_gemm_operands = 0;  // permutes folded into GEMM packing
  int64_t arena_floats = 0;     // per-row slab size
  int64_t arena_bytes = 0;
  int64_t num_constants = 0;    // captured constant tensors
  int64_t constant_bytes = 0;   // bytes the plan keeps alive (excl. weights)
  int64_t prepacked_gemms = 0;  // fp32 GEMMs with compile-time packed B
  int64_t prepacked_bytes = 0;
  // Fusion pass (DESIGN.md §11 "Fusion pass"):
  int64_t fused_epilogues = 0;   // GEMMs that absorbed bias/act/residual
  int64_t fused_chains = 0;      // kFusedChain ops emitted
  int64_t fused_chain_ops = 0;   // elementwise ops absorbed into chains
  int64_t passes_eliminated = 0; // whole memory passes removed by fusion
  int64_t arena_saved_bytes = 0; // arena shrink vs the unfused layout
  // Σ PlanOp::macs: the multiply-accumulates one execution performs, the
  // same count the eager forward charges (tensor/ops.h MAC counter).
  int64_t macs = 0;
};

// Aggregated per-op-kind timing (profiling mode only).
struct PlanOpTiming {
  const char* name = nullptr;
  int64_t calls = 0;
  int64_t total_ns = 0;
};

class InferencePlan {
 public:
  // A module forward at the plan's shapes: scaled input in, scaled
  // prediction out. Called three times during Compile (once traced, twice
  // more for validation).
  using ForwardFn = std::function<Tensor(const Tensor&)>;

  // Traces `forward` at sample_input's shape, one row [1, ...], and
  // compiles it. check_batch holds n >= 2 distinct rows [n, ...] of the
  // same row shape: its first row drives the fresh-input check, and the
  // whole batch, served row by row, must equal `forward` on the batch.
  // Fails (Status::Internal) when the trace was poisoned by an
  // uncompilable op, an operand cannot be classified, the output has no
  // leading row dim, or any validation run is not bitwise identical to
  // the module forward.
  static Result<std::shared_ptr<const InferencePlan>> Compile(
      const ForwardFn& forward, const Tensor& sample_input,
      const Tensor& check_batch);

  // Serves `input` = [b, ...] for any b >= 1 (the compile-time row shape
  // otherwise; LIPF_CHECK — the session validated the request already):
  // row r runs the program on a leased slab and lands in row r of the
  // [b, ...] answer. Rows are spread over the tensor thread pool; a lone
  // row gets the whole pool for its kernels. Thread-safe; bitwise
  // identical to the module forward on the same input.
  Tensor Execute(const Tensor& input) const;

  const PlanStats& stats() const { return stats_; }
  // Shapes of one row: [1, ...].
  const Shape& input_shape() const { return input_shape_; }
  const Shape& output_shape() const { return output_shape_; }
  // Execute calls, whatever their row count.
  int64_t executions() const {
    return executions_.load(std::memory_order_relaxed);
  }

  // Per-op-kind wall-clock accounting, summed over rows and threads. Off
  // by default (two clock reads per op); `lipformer_cli serve` and the
  // traced runs and per-layer replays of benchmark/ turn it on.
  void set_profiling(bool enabled) const {
    profiling_.store(enabled, std::memory_order_relaxed);
  }
  bool profiling() const {
    return profiling_.load(std::memory_order_relaxed);
  }
  // Kinds with at least one recorded call, in program-kind order.
  std::vector<PlanOpTiming> OpTimings() const;

 private:
  InferencePlan() = default;

  std::vector<PlanOp> ops_;
  Shape input_shape_;
  Shape output_shape_;
  int64_t arena_floats_ = 0;
  int64_t input_off_ = -1;  // -1: input unused by any surviving op
  // Output location: arena offset, or a constant/input alias.
  int64_t output_off_ = -1;
  const float* output_const_ = nullptr;
  bool output_is_input_ = false;
  // Constants captured from the trace; holding the Tensor pins the
  // underlying storage so the raw pointers in ops_ stay valid. (Prepacked
  // int8 weights are owned by the session's model, which outlives the
  // plan.)
  std::vector<Tensor> constants_;
  // Compile-time packed B panels, one buffer per prepacked GEMM; inner
  // vectors never reallocate after Compile so their data() is stable.
  std::vector<std::vector<float>> prepacked_;
  PlanStats stats_;

  mutable std::atomic<bool> profiling_{false};
  mutable PlanProfile profile_;
  mutable std::atomic<int64_t> executions_{0};
};

}  // namespace serve
}  // namespace lipformer

#endif  // LIPFORMER_SERVE_PLAN_H_
