#include "tensor/gemm_int8.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "tensor/gemm.h"
#include "tensor/storage_pool.h"

#if defined(__AVX512F__)
#include <immintrin.h>
#define LIPF_INT8_AVX512 1
#if defined(__AVX512VNNI__)
#define LIPF_INT8_VNNI 1
#endif
#endif

namespace lipformer {

namespace {

// Same dispatch grain as the fp32 GEMM: a chunk owns at least this many
// multiply-accumulates.
constexpr int64_t kInt8GrainMacs = 16384;

inline int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

inline int64_t KQuads(int64_t k) { return CeilDiv(k, kInt8KUnroll); }

// kGemmMR x kGemmNR int32 register tile over kq packed depth quads,
// accumulating INTO acc (callers zero it before the first KC block).
// ap: kq * kGemmMR * 4 unsigned bytes (s8 + 128), bp: kq * kGemmNR * 4
// signed bytes. The bias is corrected in the caller's epilogue.
#ifdef LIPF_INT8_VNNI
inline void MicroKernelInt8(int64_t kq, const uint8_t* __restrict__ ap,
                            const int8_t* __restrict__ bp,
                            int32_t* __restrict__ acc) {
  static_assert(kGemmNR == 16, "one zmm of int32 lanes per B quad");
  __m512i racc[kGemmMR];
  for (int64_t i = 0; i < kGemmMR; ++i) {
    racc[i] = _mm512_loadu_si512(acc + i * kGemmNR);
  }
  for (int64_t p = 0; p < kq; ++p) {
    const __m512i bv = _mm512_loadu_si512(bp + p * kGemmNR * kInt8KUnroll);
    const uint8_t* aq = ap + p * kGemmMR * kInt8KUnroll;
    for (int64_t i = 0; i < kGemmMR; ++i) {
      int32_t quad;
      std::memcpy(&quad, aq + i * kInt8KUnroll, sizeof(quad));
      racc[i] = _mm512_dpbusd_epi32(racc[i], _mm512_set1_epi32(quad), bv);
    }
  }
  for (int64_t i = 0; i < kGemmMR; ++i) {
    _mm512_storeu_si512(acc + i * kGemmNR, racc[i]);
  }
}
#else
inline void MicroKernelInt8(int64_t kq, const uint8_t* __restrict__ ap,
                            const int8_t* __restrict__ bp,
                            int32_t* __restrict__ acc) {
  // Portable fallback computing the identical biased arithmetic; integer
  // accumulation is exact, so it is bit-identical to the VNNI path.
  for (int64_t p = 0; p < kq; ++p) {
    const uint8_t* aq = ap + p * kGemmMR * kInt8KUnroll;
    const int8_t* bq = bp + p * kGemmNR * kInt8KUnroll;
    for (int64_t i = 0; i < kGemmMR; ++i) {
      int32_t* row = acc + i * kGemmNR;
      for (int64_t j = 0; j < kGemmNR; ++j) {
        int32_t dot = 0;
        for (int64_t q = 0; q < kInt8KUnroll; ++q) {
          dot += static_cast<int32_t>(aq[i * kInt8KUnroll + q]) *
                 static_cast<int32_t>(bq[j * kInt8KUnroll + q]);
        }
        row[j] += dot;
      }
    }
  }
}
#endif

// Packs rows [r0, r0 + rows) x depth [pc, pc + kc) of the s8 activation
// matrix a [m, k] into one biased (u8 = s8 + 128) micro-panel of
// KQuads(kc) * kGemmMR quads. Missing rows (tail) and missing depth
// (kc not a multiple of 4) pack as the bias value 128 = biased zero, so
// padded lanes multiply against packed-B zeros to exactly zero.
void PackAInt8(const int8_t* a, int64_t k, int64_t r0, int64_t rows,
               int64_t pc, int64_t kc, uint8_t* dst) {
  const int64_t kq = KQuads(kc);
  std::memset(dst, 128,
              static_cast<size_t>(kq * kGemmMR * kInt8KUnroll));
  for (int64_t i = 0; i < rows; ++i) {
    const int8_t* row = a + (r0 + i) * k + pc;
    for (int64_t p = 0; p < kc; ++p) {
      dst[(p / kInt8KUnroll) * kGemmMR * kInt8KUnroll +
          i * kInt8KUnroll + (p % kInt8KUnroll)] =
          static_cast<uint8_t>(static_cast<int32_t>(row[p]) + 128);
    }
  }
}

}  // namespace

void QuantizeWeightPerChannel(const float* w, int64_t k, int64_t n,
                              int8_t* w8, float* scale) {
  for (int64_t j = 0; j < n; ++j) {
    float amax = 0.0f;
    for (int64_t p = 0; p < k; ++p) {
      amax = std::max(amax, std::fabs(w[p * n + j]));
    }
    scale[j] = amax > 0.0f ? amax / 127.0f : 1.0f;
  }
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) {
      // nearbyint under the default FE_TONEAREST mode: round half to
      // even, deterministic across platforms for these magnitudes.
      w8[p * n + j] = static_cast<int8_t>(
          std::nearbyintf(w[p * n + j] / scale[j]));
    }
  }
}

void DequantizeWeightPerChannel(const int8_t* w8, const float* scale,
                                int64_t k, int64_t n, float* w) {
  for (int64_t p = 0; p < k; ++p) {
    for (int64_t j = 0; j < n; ++j) {
      w[p * n + j] = static_cast<float>(w8[p * n + j]) * scale[j];
    }
  }
}

float QuantizeRowDynamic(const float* x, int64_t n, int8_t* x8) {
  float amax = 0.0f;
  int64_t j = 0;
#ifdef LIPF_INT8_AVX512
  __m512 vmax = _mm512_setzero_ps();
  for (; j + 16 <= n; j += 16) {
    vmax = _mm512_max_ps(vmax, _mm512_abs_ps(_mm512_loadu_ps(x + j)));
  }
  amax = _mm512_reduce_max_ps(vmax);
#endif
  for (; j < n; ++j) amax = std::max(amax, std::fabs(x[j]));
  const float scale = amax > 0.0f ? amax / 127.0f : 1.0f;
  const float inv = 1.0f / scale;
  j = 0;
#ifdef LIPF_INT8_AVX512
  // cvtps_epi32 rounds under the default MXCSR nearest-even mode —
  // the same rounding nearbyintf performs in the scalar tail, so both
  // paths emit identical codes. Codes stay within +/-127 (amax maps to
  // exactly 127), so the saturating narrow never clips differently
  // from the scalar cast.
  const __m512 vinv = _mm512_set1_ps(inv);
  for (; j + 16 <= n; j += 16) {
    const __m512i q =
        _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(x + j), vinv));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(x8 + j),
                     _mm512_cvtsepi32_epi8(q));
  }
#endif
  for (; j < n; ++j) {
    x8[j] = static_cast<int8_t>(std::nearbyintf(x[j] * inv));
  }
  return scale;
}

Int8PackedWeight PackInt8Weight(const int8_t* w8, int64_t k, int64_t n) {
  Int8PackedWeight packed;
  packed.k = k;
  packed.n = n;
  const int64_t npanels = CeilDiv(n, kGemmNR);
  const int64_t kq = KQuads(k);
  const int64_t panel_bytes = kq * kGemmNR * kInt8KUnroll;
  packed.panels.assign(static_cast<size_t>(npanels * panel_bytes), 0);
  packed.colsum.assign(static_cast<size_t>(n), 0);
  for (int64_t jp = 0; jp < npanels; ++jp) {
    int8_t* dst = packed.panels.data() + jp * panel_bytes;
    const int64_t j0 = jp * kGemmNR;
    const int64_t ncols = std::min(kGemmNR, n - j0);
    for (int64_t p = 0; p < k; ++p) {
      const int8_t* row = w8 + p * n + j0;
      int8_t* quad = dst + (p / kInt8KUnroll) * kGemmNR * kInt8KUnroll +
                     (p % kInt8KUnroll);
      for (int64_t jj = 0; jj < ncols; ++jj) {
        quad[jj * kInt8KUnroll] = row[jj];
        packed.colsum[static_cast<size_t>(j0 + jj)] +=
            static_cast<int32_t>(row[jj]);
      }
    }
  }
  return packed;
}

void Int8GemmBlocked(const int8_t* a, const Int8PackedWeight& w, int64_t m,
                     int32_t* c) {
  const int64_t n = w.n;
  const int64_t k = w.k;
  if (m == 0 || n == 0) return;
  if (k == 0) {
    std::memset(c, 0, sizeof(int32_t) * static_cast<size_t>(m * n));
    return;
  }
  const int64_t panel_bytes = KQuads(k) * kGemmNR * kInt8KUnroll;
  const int64_t mblocks = CeilDiv(m, kGemmMR);
  const int64_t block_macs = kGemmMR * n * k;

  // Same loop nest as the fp32 kernel's compute phase (gemm.cc): each
  // chunk owns a contiguous range of kGemmMR-row blocks, KC depth blocks
  // ascending (biased partial sums accumulate through C), MC row blocks
  // with A packed once per MC x KC block into chunk-local scratch, NC/NR
  // column panels, MR micro-panels. A final per-row pass subtracts the
  // +128 A-bias correction once, after the last KC block.
  ParallelFor(
      mblocks, std::max<int64_t>(1, kInt8GrainMacs / block_macs),
      [&](int64_t begin, int64_t end) {
        // Chunk-local A-pack scratch from the float pool (byte view).
        Storage apack_storage =
            Storage::Acquire(CeilDiv(kGemmMC * kGemmKC, 4));
        uint8_t* apack = reinterpret_cast<uint8_t*>(apack_storage.data());
        const int64_t row0 = begin * kGemmMR;
        const int64_t row1 = std::min(m, end * kGemmMR);
        for (int64_t pc = 0; pc < k; pc += kGemmKC) {
          const int64_t kc = std::min(kGemmKC, k - pc);
          const int64_t kq = KQuads(kc);
          for (int64_t ic = row0; ic < row1; ic += kGemmMC) {
            const int64_t mc = std::min(kGemmMC, row1 - ic);
            const int64_t napanels = CeilDiv(mc, kGemmMR);
            for (int64_t ap = 0; ap < napanels; ++ap) {
              PackAInt8(a, k, ic + ap * kGemmMR,
                        std::min(kGemmMR, mc - ap * kGemmMR), pc, kc,
                        apack + ap * kq * kGemmMR * kInt8KUnroll);
            }
            for (int64_t jc = 0; jc < n; jc += kGemmNC) {
              const int64_t nc_end = std::min(n, jc + kGemmNC);
              for (int64_t jp = jc / kGemmNR; jp * kGemmNR < nc_end;
                   ++jp) {
                const int8_t* bp = w.panels.data() + jp * panel_bytes +
                                   (pc / kInt8KUnroll) * kGemmNR *
                                       kInt8KUnroll;
                const int64_t ncols = std::min(kGemmNR, n - jp * kGemmNR);
                for (int64_t ap = 0; ap < napanels; ++ap) {
                  int32_t acc[kGemmMR * kGemmNR] = {0};
                  MicroKernelInt8(
                      kq, apack + ap * kq * kGemmMR * kInt8KUnroll, bp,
                      acc);
                  const int64_t r0 = ic + ap * kGemmMR;
                  const int64_t rows = std::min(kGemmMR, row1 - r0);
                  int32_t* ct = c + r0 * n + jp * kGemmNR;
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
        // Bias correction: c -= 128 * colsum, once per output element.
        for (int64_t r = row0; r < row1; ++r) {
          int32_t* row = c + r * n;
          for (int64_t j = 0; j < n; ++j) {
            row[j] -= 128 * w.colsum[static_cast<size_t>(j)];
          }
        }
      });
}

void Int8GemmReference(const int8_t* a, const int8_t* b, int64_t m,
                       int64_t n, int64_t k, int32_t* c) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      int32_t acc = 0;
      for (int64_t p = 0; p < k; ++p) {
        acc += static_cast<int32_t>(a[i * k + p]) *
               static_cast<int32_t>(b[p * n + j]);
      }
      c[i * n + j] = acc;
    }
  }
}

}  // namespace lipformer
