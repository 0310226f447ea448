#include "tensor/gemm.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tensor/ops_raw.h"
#include "tensor/storage_pool.h"

namespace lipformer {

namespace {

static_assert(kGemmMC % kGemmMR == 0, "MC must be a multiple of MR");
static_assert(kGemmNC % kGemmNR == 0, "NC must be a multiple of NR");

// Same pool-dispatch grain the unblocked MatMul used: chunks own at least
// this many multiply-accumulates, and boundaries are shape-derived.
constexpr int64_t kGemmGrainMacs = 16384;
// Grain for the (pure data movement) packing phase.
constexpr int64_t kPackGrainElems = 8192;

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// kGemmMR x kGemmNR register tile: acc[i][j] += ap[p][i] * bp[p][j].
// Both operands are packed — stride kGemmMR / kGemmNR per k step — so each
// k step is one contiguous kGemmNR-wide load of B, kGemmMR scalar
// broadcasts of A, and broadcast*vector FMAs into a register-resident
// accumulator tile. Accumulation order over p is sequential, which
// (together with the ascending-KC-block order in the caller) fixes the
// floating-point summation order per output element independent of
// threading.
#if defined(__GNUC__) || defined(__clang__)
// Explicit 8-lane vectors (GNU vector extension; the compiler legalizes
// them to whatever the target ISA offers). The MR*NR/8 independent
// accumulator chains — one FMA each per k step — are what hides FMA
// latency; GCC's auto-vectorizer picks a narrower, shuffle-heavy layout
// for the equivalent scalar loop, hence the explicit form.
typedef float GemmVec __attribute__((vector_size(32), aligned(4)));
constexpr int64_t kGemmVecLanes = 8;
static_assert(kGemmNR % kGemmVecLanes == 0);

inline void MicroKernel(int64_t kc, const float* __restrict__ ap,
                        const float* __restrict__ bp,
                        float* __restrict__ acc) {
  constexpr int64_t kVecs = kGemmNR / kGemmVecLanes;
  GemmVec racc[kGemmMR][kVecs] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* a = ap + p * kGemmMR;
    const float* b = bp + p * kGemmNR;
    GemmVec bv[kVecs];
    for (int64_t v = 0; v < kVecs; ++v) {
      std::memcpy(&bv[v], b + v * kGemmVecLanes, sizeof(GemmVec));
    }
    for (int64_t i = 0; i < kGemmMR; ++i) {
      const float ai = a[i];
      for (int64_t v = 0; v < kVecs; ++v) {
        racc[i][v] += bv[v] * ai;
      }
    }
  }
  for (int64_t i = 0; i < kGemmMR; ++i) {
    std::memcpy(acc + i * kGemmNR, &racc[i][0],
                sizeof(float) * static_cast<size_t>(kGemmNR));
  }
}
#else
inline void MicroKernel(int64_t kc, const float* __restrict__ ap,
                        const float* __restrict__ bp,
                        float* __restrict__ acc) {
  // Portable fallback with the identical per-element summation order: one
  // output row at a time, p sequential within the row.
  for (int64_t i = 0; i < kGemmMR; ++i) {
    float row[kGemmNR] = {0.0f};
    const float* a = ap + i;
    for (int64_t p = 0; p < kc; ++p) {
      const float ai = a[p * kGemmMR];
      const float* b = bp + p * kGemmNR;
      for (int64_t j = 0; j < kGemmNR; ++j) {
        row[j] += ai * b[j];
      }
    }
    for (int64_t j = 0; j < kGemmNR; ++j) acc[i * kGemmNR + j] = row[j];
  }
}
#endif

// Packs one kGemmNR-wide column panel of a stored B matrix, padding the
// tail panel with zero columns so the micro-kernel always runs full width
// (padded lanes are computed but never stored).
// With null row_off the matrix is dense at src ([k, n], or [n, k] when
// trans_b). Otherwise stored element (r, c) is read from
// src[row_off[r] + col_off[c]] — the separable-gather view AOT plans use
// to pack through a transpose instead of materializing it (gemm.h).
void PackBPanel(const float* src, bool trans_b, int64_t n, int64_t k,
                const int64_t* row_off, const int64_t* col_off, int64_t jp,
                float* dst) {
  const int64_t j0 = jp * kGemmNR;
  const int64_t ncols = std::min(kGemmNR, n - j0);
  if (ncols < kGemmNR) {
    std::memset(dst, 0, sizeof(float) * static_cast<size_t>(k * kGemmNR));
  }
  if (!trans_b) {
    // Stored [k, n]: row p holds logical columns, contiguous when dense.
    if (row_off == nullptr) {
      for (int64_t p = 0; p < k; ++p) {
        const float* row = src + p * n + j0;
        float* out = dst + p * kGemmNR;
        for (int64_t jj = 0; jj < ncols; ++jj) out[jj] = row[jj];
      }
    } else {
      for (int64_t p = 0; p < k; ++p) {
        const float* row = src + row_off[p];
        float* out = dst + p * kGemmNR;
        for (int64_t jj = 0; jj < ncols; ++jj) out[jj] = row[col_off[j0 + jj]];
      }
    }
  } else {
    // Stored [n, k]: logical column j is the stored row j.
    if (row_off == nullptr) {
      for (int64_t jj = 0; jj < ncols; ++jj) {
        const float* row = src + (j0 + jj) * k;
        float* out = dst + jj;
        for (int64_t p = 0; p < k; ++p) out[p * kGemmNR] = row[p];
      }
    } else {
      for (int64_t jj = 0; jj < ncols; ++jj) {
        const float* row = src + row_off[j0 + jj];
        float* out = dst + jj;
        for (int64_t p = 0; p < k; ++p) out[p * kGemmNR] = row[col_off[p]];
      }
    }
  }
}

// Packs rows [ic, ic+mc) x depth [pc, pc+kc) of a stored A matrix into
// kGemmMR-row micro-panels (panel stride kc * kGemmMR), zero-padding the
// tail panel's missing rows. With null row_off the matrix is dense at
// a_mat ([m, k], or [k, m] when trans_a). Otherwise stored element
// (r, c) is read from a_mat[row_off[r] + col_off[c]] (separable-gather
// view, !trans_a only — plans never fuse a transposed-A operand).
void PackABlock(const float* a_mat, bool trans_a, int64_t m, int64_t k,
                const int64_t* row_off, const int64_t* col_off, int64_t ic,
                int64_t mc, int64_t pc, int64_t kc, float* dst) {
  const int64_t napanels = CeilDiv(mc, kGemmMR);
  for (int64_t ap = 0; ap < napanels; ++ap) {
    float* panel = dst + ap * kc * kGemmMR;
    const int64_t r0 = ic + ap * kGemmMR;
    const int64_t rows = std::min(kGemmMR, mc - ap * kGemmMR);
    if (rows < kGemmMR) {
      std::memset(panel, 0, sizeof(float) * static_cast<size_t>(kc * kGemmMR));
    }
    if (!trans_a) {
      // Stored [m, k]: each logical row is contiguous in p when dense.
      if (row_off == nullptr) {
        for (int64_t ii = 0; ii < rows; ++ii) {
          const float* row = a_mat + (r0 + ii) * k + pc;
          float* out = panel + ii;
          for (int64_t p = 0; p < kc; ++p) out[p * kGemmMR] = row[p];
        }
      } else {
        for (int64_t ii = 0; ii < rows; ++ii) {
          const float* row = a_mat + row_off[r0 + ii];
          float* out = panel + ii;
          for (int64_t p = 0; p < kc; ++p) {
            out[p * kGemmMR] = row[col_off[pc + p]];
          }
        }
      }
    } else {
      // Stored [k, m]: for fixed depth p the logical rows are contiguous.
      for (int64_t p = 0; p < kc; ++p) {
        const float* col = a_mat + (pc + p) * m + r0;
        float* out = panel + p * kGemmMR;
        for (int64_t ii = 0; ii < rows; ++ii) out[ii] = col[ii];
      }
    }
  }
}

// Compute phase shared by PackedGemmBatched and its prepacked variant:
// packed_base holds batch.num_b_mats consecutive packed B matrices in
// PackBPanel layout. One compiled loop for both entry points keeps them
// bitwise identical by construction.
void ComputePackedGemm(const float* a, bool trans_a,
                       const float* packed_base, float* c, int64_t m,
                       int64_t n, int64_t k, const GemmBatch& batch,
                       const GemmEpilogue* epi) {
  const int64_t nbatch = batch.nbatch;
  const int64_t npanels = CeilDiv(n, kGemmNR);
  const int64_t panel_size = k * kGemmNR;
  // Phase 2: each chunk owns a contiguous range of kGemmMR-row blocks
  // (globally indexed over batch x M), so every output row is written by
  // exactly one chunk. Within the chunk the canonical blocked loop nest
  // runs: KC depth blocks (ascending — this fixes the summation order),
  // MC row blocks (A packed per block into a chunk-local buffer), NC/NR
  // column panels, MR row micro-panels.
  const int64_t mblocks = CeilDiv(m, kGemmMR);
  const int64_t a_mat = m * k;
  const int64_t c_mat = m * n;
  LIPF_CHECK(batch.a_row_offset == nullptr || !trans_a);
  const int64_t block_macs = kGemmMR * n * k;
  ParallelFor(
      nbatch * mblocks, std::max<int64_t>(1, kGemmGrainMacs / block_macs),
      [&](int64_t begin, int64_t end) {
        // Per-chunk A-pack scratch from the storage pool: a freelist pop
        // after the first step instead of a malloc per chunk.
        Storage apack = Storage::Acquire(kGemmMC * std::min(k, kGemmKC));
        int64_t blk = begin;
        while (blk < end) {
          const int64_t bi = blk / mblocks;
          const int64_t rb0 = blk % mblocks;
          const int64_t rb1 = std::min(mblocks, rb0 + (end - blk));
          const int64_t row0 = rb0 * kGemmMR;
          const int64_t row1 = std::min(m, rb1 * kGemmMR);
          // With a row-offset gather the offsets (one run of m per batch
          // position) already encode the matrix start, so the base stays
          // the raw operand pointer.
          const int64_t* a_ro = batch.a_row_offset != nullptr
                                    ? batch.a_row_offset + bi * m
                                    : nullptr;
          const float* a_base = a_ro != nullptr
                                    ? a
                                    : a + batch.a_mat_index[bi] * a_mat;
          const float* b_pack =
              packed_base + batch.b_mat_index[bi] * npanels * panel_size;
          float* c_base = c + bi * c_mat;
          const float* res_base =
              epi != nullptr && epi->residual != nullptr
                  ? epi->residual + bi * c_mat
                  : nullptr;
          for (int64_t pc = 0; pc < k; pc += kGemmKC) {
            const int64_t kc = std::min(kGemmKC, k - pc);
            for (int64_t ic = row0; ic < row1; ic += kGemmMC) {
              const int64_t mc = std::min(kGemmMC, row1 - ic);
              PackABlock(a_base, trans_a, m, k, a_ro, batch.a_col_offset,
                         ic, mc, pc, kc, apack.data());
              const int64_t napanels = CeilDiv(mc, kGemmMR);
              for (int64_t jc = 0; jc < n; jc += kGemmNC) {
                const int64_t nc_end = std::min(n, jc + kGemmNC);
                for (int64_t jp = jc / kGemmNR; jp * kGemmNR < nc_end;
                     ++jp) {
                  const float* bp =
                      b_pack + jp * panel_size + pc * kGemmNR;
                  const int64_t ncols =
                      std::min(kGemmNR, n - jp * kGemmNR);
                  for (int64_t ap = 0; ap < napanels; ++ap) {
                    float acc[kGemmMR * kGemmNR] = {0.0f};
                    MicroKernel(kc, apack.data() + ap * kc * kGemmMR, bp,
                                acc);
                    const int64_t r0 = ic + ap * kGemmMR;
                    const int64_t rows = std::min(kGemmMR, row1 - r0);
                    float* ct = c_base + r0 * n + jp * kGemmNR;
                    if (pc == 0) {
                      for (int64_t i = 0; i < rows; ++i) {
                        for (int64_t j = 0; j < ncols; ++j) {
                          ct[i * n + j] = acc[i * kGemmNR + j];
                        }
                      }
                    } else {
                      for (int64_t i = 0; i < rows; ++i) {
                        for (int64_t j = 0; j < ncols; ++j) {
                          ct[i * n + j] += acc[i * kGemmNR + j];
                        }
                      }
                    }
                  }
                }
              }
            }
          }
          // The chunk's C rows are complete; apply the fused epilogue as
          // one sweep over full-width contiguous rows while they are
          // still warm. Keeping the sweep out of the blocked loops means
          // it never competes with the packed A/B working set mid-GEMM.
          if (epi != nullptr && epi->enabled()) {
            raw::GemmEpilogueRows(c_base, n, row0, row1 - row0, epi->bias,
                                  epi->act, res_base, epi->res_op,
                                  epi->res_is_lhs);
          }
          blk += rb1 - rb0;
        }
      });
}

// k == 0 degenerate case: C is all zeros; the epilogue (if any) still
// runs over it so the fused op matches the unfused sequence.
void ZeroGemmOutput(float* c, int64_t m, int64_t n, int64_t nbatch,
                    const GemmEpilogue* epi) {
  std::memset(c, 0, sizeof(float) * static_cast<size_t>(nbatch * m * n));
  if (epi == nullptr || !epi->enabled()) return;
  raw::GemmEpilogueRows(c, n, 0, nbatch * m, epi->bias, epi->act,
                        epi->residual, epi->res_op, epi->res_is_lhs);
}

}  // namespace

void PackedGemmBatched(const float* a, bool trans_a, const float* b,
                       bool trans_b, float* c, int64_t m, int64_t n,
                       int64_t k, const GemmBatch& batch,
                       const GemmEpilogue* epi) {
  const int64_t nbatch = batch.nbatch;
  if (nbatch == 0 || m == 0 || n == 0) return;
  if (k == 0) {
    ZeroGemmOutput(c, m, n, nbatch, epi);
    return;
  }
  LIPF_CHECK(batch.a_mat_index != nullptr);
  LIPF_CHECK(batch.b_mat_index != nullptr);

  // Phase 1: pack every distinct B matrix into column panels, shared
  // read-only by all compute chunks. Pure data movement with disjoint
  // writes, so the parallel split is free of ordering concerns.
  const int64_t npanels = CeilDiv(n, kGemmNR);
  const int64_t panel_size = k * kGemmNR;
  const int64_t b_mat = k * n;
  const int64_t b_rows = trans_b ? n : k;  // stored rows per B matrix
  Storage packed_b =
      Storage::Acquire(batch.num_b_mats * npanels * panel_size);
  float* packed_base = packed_b.data();
  ParallelFor(batch.num_b_mats * npanels,
              std::max<int64_t>(1, kPackGrainElems / panel_size),
              [&](int64_t begin, int64_t end) {
                for (int64_t t = begin; t < end; ++t) {
                  const int64_t bm = t / npanels;
                  const int64_t jp = t % npanels;
                  const int64_t* b_ro =
                      batch.b_row_offset != nullptr
                          ? batch.b_row_offset + bm * b_rows
                          : nullptr;
                  const float* src = b_ro != nullptr ? b : b + bm * b_mat;
                  PackBPanel(src, trans_b, n, k, b_ro, batch.b_col_offset,
                             jp, packed_base + t * panel_size);
                }
              });

  ComputePackedGemm(a, trans_a, packed_base, c, m, n, k, batch, epi);
}

void PackGemmB(const float* b, bool trans_b, int64_t n, int64_t k,
               float* dst) {
  const int64_t npanels = CeilDiv(n, kGemmNR);
  const int64_t panel_size = k * kGemmNR;
  for (int64_t jp = 0; jp < npanels; ++jp) {
    PackBPanel(b, trans_b, n, k, nullptr, nullptr, jp,
               dst + jp * panel_size);
  }
}

void PackedGemmBatchedPrepacked(const float* a, bool trans_a,
                                const float* packed_b, float* c, int64_t m,
                                int64_t n, int64_t k, const GemmBatch& batch,
                                const GemmEpilogue* epi) {
  const int64_t nbatch = batch.nbatch;
  if (nbatch == 0 || m == 0 || n == 0) return;
  if (k == 0) {
    ZeroGemmOutput(c, m, n, nbatch, epi);
    return;
  }
  LIPF_CHECK(batch.a_mat_index != nullptr);
  LIPF_CHECK(batch.b_mat_index != nullptr);
  ComputePackedGemm(a, trans_a, packed_b, c, m, n, k, batch, epi);
}

}  // namespace lipformer
