// The strided kernels that walk by rows and odometers (tensor/ops_raw.h):
// raw::BinaryBcast and raw::PermuteCopy. Each is compared bitwise
// against a plain loop that computes every output element on its own —
// its multi-index, its operand offsets, one ApplyBin — at one and at four
// tensor threads.
// The shapes cover every Bin op, ranks 1-5, size-1 and zero-size dims, a
// scalar operand on either side, broadcast on the inner, a middle and the
// outer dim, strides that fit no row pattern, and sizes on both sides of
// the 8,192-element chunk grain, so chunks also start and end mid-row.
//
// The kernels run on exactly sized std::vector buffers so ASan sees any
// read or write past a row (pooled tensors would hide it).

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "tensor/ops.h"
#include "tensor/ops_raw.h"
#include "tests/test_util.h"

namespace lipformer {
namespace {

using raw::Bin;
using testing::ThreadCountGuard;

constexpr Bin kAllBins[] = {Bin::kAdd, Bin::kSub, Bin::kMul,
                            Bin::kDiv, Bin::kMax, Bin::kMin};

std::vector<float> RandomBuffer(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(static_cast<size_t>(n));
  for (float& x : v) x = static_cast<float>(rng.Normal());
  return v;
}

bool BitwiseEqual(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

int64_t Product(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t s : shape) n *= s;
  return n;
}

// Row-major strides of `shape` padded to `out`'s rank, 0 on broadcast
// dims.
std::vector<int64_t> BroadcastStridesOf(const std::vector<int64_t>& shape,
                                        const std::vector<int64_t>& out) {
  const size_t nd = out.size();
  std::vector<int64_t> padded(nd, 1);
  std::copy(shape.begin(), shape.end(), padded.end() - shape.size());
  std::vector<int64_t> strides(nd, 0);
  int64_t s = 1;
  for (size_t i = nd; i-- > 0;) {
    strides[i] = padded[i] == 1 && out[i] != 1 ? 0 : s;
    s *= padded[i];
  }
  return strides;
}

// out[e] = op(a[dot(idx(e), sa)], b[dot(idx(e), sb)]), element by element.
std::vector<float> ReferenceBinary(Bin op, const std::vector<float>& a,
                                   const std::vector<float>& b,
                                   const std::vector<int64_t>& oshape,
                                   const std::vector<int64_t>& sa,
                                   const std::vector<int64_t>& sb) {
  const int64_t numel = Product(oshape);
  std::vector<float> out(static_cast<size_t>(numel));
  for (int64_t e = 0; e < numel; ++e) {
    int64_t rem = e, oa = 0, ob = 0;
    for (size_t d = oshape.size(); d-- > 0;) {
      const int64_t i = rem % oshape[d];
      rem /= oshape[d];
      oa += i * sa[d];
      ob += i * sb[d];
    }
    out[static_cast<size_t>(e)] = raw::ApplyBin(op, a[oa], b[ob]);
  }
  return out;
}

// Runs raw::BinaryBcast for every op at 1 and 4 threads and compares it
// with ReferenceBinary. a and b hold exactly a_numel / b_numel floats.
void ExpectBinaryMatchesReference(const std::vector<int64_t>& oshape,
                                  const std::vector<int64_t>& sa,
                                  const std::vector<int64_t>& sb,
                                  int64_t a_numel, int64_t b_numel) {
  SCOPED_TRACE(ShapeToString(oshape) + " sa=" + ShapeToString(sa) +
               " sb=" + ShapeToString(sb));
  const std::vector<float> a = RandomBuffer(a_numel, 11 + a_numel);
  const std::vector<float> b = RandomBuffer(b_numel, 13 + b_numel);
  const int64_t numel = Product(oshape);
  const ThreadCountGuard guard;
  for (const Bin op : kAllBins) {
    const std::vector<float> want = ReferenceBinary(op, a, b, oshape, sa, sb);
    for (const int threads : {1, 4}) {
      SetNumThreads(threads);
      std::vector<float> got(static_cast<size_t>(numel));
      raw::BinaryBcast(op, a.data(), b.data(), got.data(), oshape.data(),
                       sa.data(), sb.data(),
                       static_cast<int64_t>(oshape.size()), numel);
      EXPECT_TRUE(BitwiseEqual(got, want))
          << "op " << static_cast<int>(op) << ", " << threads << " threads";
    }
  }
}

// a (shape `as`) op b (shape `bs`) under numpy broadcasting.
void ExpectBroadcastMatchesReference(const std::vector<int64_t>& as,
                                     const std::vector<int64_t>& bs) {
  const Shape out = BroadcastShape(as, bs);
  ExpectBinaryMatchesReference(out, BroadcastStridesOf(as, out),
                               BroadcastStridesOf(bs, out), Product(as),
                               Product(bs));
}

TEST(BroadcastKernelTest, RowKernelMatchesReferenceLoopOnExactBuffers) {
  const std::vector<std::pair<std::vector<int64_t>, std::vector<int64_t>>>
      cases = {
          // Rank 1, a scalar operand on either side, below and above the
          // grain, and a zero-size dim.
          {{7}, {1}},
          {{1}, {7}},
          {{9000}, {1}},
          {{1}, {9000}},
          {{0}, {1}},
          // Rank 2: inner-dim operand (the scaler), outer broadcast, an
          // outer product, rows wider than the grain.
          {{336, 21}, {21}},
          {{21}, {336, 21}},
          {{64, 200}, {1, 200}},
          {{1, 200}, {64, 200}},
          {{4, 1}, {1, 5}},
          {{2, 10000}, {2, 1}},
          {{5, 3000}, {5, 1}},
          {{1, 3000}, {5, 1}},
          {{7, 1234}, {7, 1}},
          // Rank 3: middle-dim broadcast, size-1 dims everywhere, zero
          // size.
          {{1, 336, 21}, {21}},
          {{32, 336, 21}, {32, 1, 21}},
          {{32, 336, 1}, {32, 1, 1}},
          {{32, 1, 1}, {32, 336, 1}},
          {{2, 3, 4}, {2, 1, 1}},
          {{1, 1, 1}, {1, 1, 1}},
          {{5, 1, 7}, {1, 6, 1}},
          {{3, 0, 4}, {3, 1, 4}},
          {{672, 7, 64}, {64}},
          // Rank 4.
          {{2, 3, 4, 5}, {1, 3, 1, 5}},
          {{1, 96, 21, 1}, {21, 1}},
          {{6, 7, 8, 200}, {200}},
          {{6, 7, 8, 200}, {6, 1, 8, 1}},
          // Rank 5.
          {{2, 1, 3, 4, 5}, {2, 6, 1, 1, 5}},
          {{2, 3, 4, 5, 6}, {1}},
          {{1}, {2, 3, 4, 5, 6}},
          {{3, 4, 5, 6, 70}, {3, 1, 5, 1, 70}},
          {{3, 4, 5, 6, 70}, {1, 4, 1, 6, 1}},
          {{3, 5, 7, 11, 13}, {3, 1, 7, 1, 13}},
          {{2, 0, 3, 1, 4}, {1, 1, 3, 5, 4}},
      };
  for (const auto& [as, bs] : cases) ExpectBroadcastMatchesReference(as, bs);
}

// Strides the row walk has no pattern for fall back to one-element rows:
// an operand read every other element, and two operands constant along
// the same output dim.
TEST(BroadcastKernelTest, UnpatternedStridesWalkOneElementRows) {
  ExpectBinaryMatchesReference({4, 5}, {10, 2}, {0, 1}, 40, 5);
  ExpectBinaryMatchesReference({3, 9000}, {1, 0}, {0, 0}, 3, 1);
  ExpectBinaryMatchesReference({6, 7}, {7, 1}, {1, 6}, 42, 42);
}

// Instance norm's shift and unshift, Sub/Add of [B, T, C] and its last
// row [B, 1, C], reach BinaryBcast with these strides.
TEST(BroadcastKernelTest, InstanceNormShiftsMatchReference) {
  for (const auto& [batch, t, c] :
       std::vector<std::tuple<int64_t, int64_t, int64_t>>{
           {1, 336, 21}, {32, 336, 21}, {3, 1, 5}, {4, 7, 1}, {2, 5000, 3},
           {0, 4, 3}, {3, 0, 3}, {3, 4, 0}}) {
    ExpectBinaryMatchesReference({batch, t, c}, {t * c, c, 1}, {c, 0, 1},
                                 batch * t * c, batch * c);
  }
}

// PermuteCopy shares the row kernel's odometer: transposes, a zero-stride
// gather (BroadcastTo's), and the rank bound itself.
TEST(BroadcastKernelTest, PermuteCopyMatchesReference) {
  const ThreadCountGuard guard;
  struct Case {
    std::vector<int64_t> oshape, gather;
    int64_t in_numel;
  };
  std::vector<int64_t> max_rank(raw::kMaxStridedRank, 2);
  std::vector<int64_t> max_rank_gather(raw::kMaxStridedRank);
  for (int64_t d = 0; d < raw::kMaxStridedRank; ++d) {
    max_rank_gather[d] = int64_t{1} << d;  // reverses every axis
  }
  for (const Case& c : std::vector<Case>{
           {{21, 336}, {1, 21}, 336 * 21},
           {{4, 3, 2}, {1, 4, 12}, 24},
           {{7, 64, 2, 48}, {64, 1, 48 * 7 * 64, 7 * 64}, 2 * 48 * 7 * 64},
           {{5, 4000}, {0, 1}, 4000},
           {{3, 0, 2}, {2, 6, 1}, 0},
           {{}, {}, 1},
           {max_rank, max_rank_gather, int64_t{1} << raw::kMaxStridedRank},
       }) {
    SCOPED_TRACE(ShapeToString(c.oshape));
    const std::vector<float> in = RandomBuffer(c.in_numel, 31);
    const int64_t numel = Product(c.oshape);
    std::vector<float> want(static_cast<size_t>(numel));
    for (int64_t e = 0; e < numel; ++e) {
      int64_t rem = e, src = 0;
      for (size_t d = c.oshape.size(); d-- > 0;) {
        src += (rem % c.oshape[d]) * c.gather[d];
        rem /= c.oshape[d];
      }
      want[static_cast<size_t>(e)] = in[static_cast<size_t>(src)];
    }
    for (const int threads : {1, 4}) {
      SetNumThreads(threads);
      std::vector<float> got(want.size());
      raw::PermuteCopy(in.data(), got.data(), c.oshape.data(),
                       c.gather.data(),
                       static_cast<int64_t>(c.oshape.size()), numel);
      EXPECT_TRUE(BitwiseEqual(got, want)) << threads << " threads";
    }
  }
}

}  // namespace
}  // namespace lipformer
