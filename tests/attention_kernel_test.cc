// The fused attention kernel (raw::AttentionRows) and its exp
// (raw::ExpVec): the numeric bounds DESIGN.md ("Fused attention") states,
// each enforced here against an independent reference.
//
//   * ExpVec is within 1 ulp of the correctly rounded exp over
//     [kExpLo, 0], exact at 0, exactly +0 below the underflow edge, NaN
//     on NaN, and the same bits in every lane.
//   * The kernel stays within kFwdTol of the composed MatMulTransB ->
//     ScaledMaskedSoftmax -> MatMul chain, and its autograd rule within
//     kGradTol of that chain's gradients, over a grid spanning every
//     attention shape the registry builds.
//   * A NaN in q, k or v reaches the output rows that read it.
//
// The kernel is called on exactly sized std::vector buffers so ASan sees
// any read past a row or a block tail (pooled tensors would hide it).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/attention.h"
#include "tensor/ops_raw.h"
#include "tests/test_util.h"

namespace lipformer {
namespace {

using raw::VecF;
using testing::RandomTensor;

int64_t FloatBits(float f) {
  int32_t i;
  std::memcpy(&i, &f, sizeof(i));
  return i;
}

TEST(AttentionKernelTest, ExpWithinOneUlpOfCorrectlyRoundedExp) {
  // 2^24 evenly spaced inputs over [kExpLo, 0], 16 per vector; the
  // reference is exp in double rounded once to float.
  const int64_t n = int64_t{1} << 24;
  int64_t worst = 0;
  float worst_x = 0.0f;
  for (int64_t i = 0; i < n; i += raw::kVecLanes) {
    VecF x;
    for (int64_t l = 0; l < raw::kVecLanes; ++l) {
      x[l] = raw::kExpLo * static_cast<float>(i + l) /
             static_cast<float>(n - 1);
    }
    VecF y = x;
    raw::ExpVec(y);
    for (int64_t l = 0; l < raw::kVecLanes; ++l) {
      const float ref =
          static_cast<float>(std::exp(static_cast<double>(x[l])));
      const int64_t ulps = std::llabs(FloatBits(y[l]) - FloatBits(ref));
      if (ulps > worst) {
        worst = ulps;
        worst_x = x[l];
      }
    }
  }
  EXPECT_LE(worst, 1) << "at x = " << worst_x;
}

TEST(AttentionKernelTest, ExpEdges) {
  VecF x = {};
  x[1] = raw::kExpLo;  // the last input that is not flushed
  x[2] = std::nextafter(raw::kExpLo, -100.0f);
  x[3] = -88.0f;
  x[4] = -1e9f;  // the causal mask's masked score
  x[5] = -std::numeric_limits<float>::infinity();
  x[6] = std::numeric_limits<float>::quiet_NaN();
  x[7] = raw::kExpHi;
  x[8] = std::nextafter(raw::kExpHi, 100.0f);
  x[9] = std::numeric_limits<float>::infinity();
  VecF y = x;
  raw::ExpVec(y);
  EXPECT_EQ(FloatBits(y[0]), FloatBits(1.0f));
  EXPECT_GT(y[1], 0.0f);
  for (int l : {2, 3, 4, 5}) {
    EXPECT_EQ(FloatBits(y[l]), FloatBits(0.0f)) << "lane " << l;
  }
  EXPECT_TRUE(std::isnan(y[6]));
  EXPECT_TRUE(std::isfinite(y[7]));
  EXPECT_EQ(y[8], std::numeric_limits<float>::infinity());
  EXPECT_EQ(y[9], std::numeric_limits<float>::infinity());
}

TEST(AttentionKernelTest, ExpBitsDoNotDependOnTheLane) {
  // Every input, placed in every lane among unrelated neighbours, gives
  // the bits it gives in lane 0.
  const Tensor inputs = RandomTensor({512}, 5, 20.0f);
  const Tensor junk = RandomTensor({raw::kVecLanes}, 6, 50.0f);
  for (int64_t i = 0; i < inputs.numel(); ++i) {
    VecF x;
    for (int64_t l = 0; l < raw::kVecLanes; ++l) x[l] = junk.data()[l];
    x[0] = -std::fabs(inputs.data()[i]);
    VecF y = x;
    raw::ExpVec(y);
    const float want = y[0];
    for (int64_t l = 1; l < raw::kVecLanes; ++l) {
      VecF moved = x;
      moved[0] = junk.data()[0];
      moved[l] = x[0];
      raw::ExpVec(moved);
      ASSERT_EQ(FloatBits(moved[l]), FloatBits(want))
          << "input " << i << " in lane " << l;
    }
  }
}

// ---- Kernel vs the composed reference chain ----

// Normwise error bounds: max |fused - reference| over max |reference|.
// DESIGN.md quotes the measured maxima next to these.
constexpr float kFwdTol = 2e-6f;
constexpr float kGradTol = 1e-6f;

struct Shape4 {
  int64_t batch, heads, sq, sk, dk, dv;
  bool causal;
};

std::string Describe(const Shape4& s) {
  std::ostringstream os;
  os << "b" << s.batch << " h" << s.heads << " sq" << s.sq << " sk" << s.sk
     << " dk" << s.dk << " dv" << s.dv << (s.causal ? " causal" : "");
  return os.str();
}

// [b, s, h*d] -> [b, h, s, d] and back, for the reference chain.
Variable SplitHeads(const Variable& t, int64_t h) {
  const int64_t b = t.size(0), s = t.size(1), d = t.size(2) / h;
  return Permute(Reshape(t, Shape{b, s, h, d}), {0, 2, 1, 3});
}
Variable MergeHeads(const Variable& t) {
  const int64_t b = t.size(0), h = t.size(1), s = t.size(2), d = t.size(3);
  return Reshape(Permute(t, {0, 2, 1, 3}), Shape{b, s, h * d});
}

// The composed chain the fused kernel replaced, kept as the reference.
Variable ReferenceAttention(const Variable& q, const Variable& k,
                            const Variable& v, int64_t heads, float scale,
                            const Tensor* mask) {
  Variable scores = MatMulTransB(SplitHeads(q, heads), SplitHeads(k, heads));
  Variable p = ScaledMaskedSoftmax(scores, scale, mask);
  return MergeHeads(MatMul(p, SplitHeads(v, heads)));
}

float NormwiseError(const Tensor& got, const Tensor& want) {
  float mx = 0.0f;
  for (int64_t i = 0; i < want.numel(); ++i) {
    mx = std::max(mx, std::fabs(want.data()[i]));
  }
  return MaxAbsDiff(got, want) / std::max(mx, 1e-30f);
}

std::vector<float> ToVector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

// Every attention shape the registry builds: sequence lengths from one
// token to Transformer's 720, head sizes from 1 to LiPFormer's 56 (patch
// 6 at T = 336), Sq != Sk, 1/2/4 heads, with and without the causal mask;
// plus two longer heads.
std::vector<Shape4> Grid() {
  const int64_t seqs[] = {1, 3, 6, 7, 17, 48, 96, 336, 720};
  const int64_t dims[] = {1, 3, 7, 16, 56};
  const int64_t heads[] = {1, 2, 4};
  std::vector<Shape4> grid;
  const int64_t ns = std::size(seqs);
  for (int64_t si = 0; si < ns; ++si) {
    for (int64_t di = 0; di < 5; ++di) {
      const int64_t s = seqs[si];
      const int64_t h = heads[(si + di) % 3];
      const int64_t b = s >= 336 ? 1 : 2;
      grid.push_back({b, h, s, s, dims[di], dims[di], (si + di) % 2 == 0});
      // Sq != Sk (cross-attention), also with dk != dv.
      const int64_t other = seqs[(si + 2) % ns];
      grid.push_back(
          {b, h, s, other, dims[di], dims[(di + 1) % 5], (si + di) % 2 != 0});
    }
  }
  // Head dimensions past the kernel's 64-column query chunk: the scores
  // accumulate over several passes.
  grid.push_back({2, 1, 17, 9, 130, 70, true});
  grid.push_back({1, 2, 5, 48, 65, 3, false});
  return grid;
}

TEST(AttentionKernelTest, RawKernelMatchesComposedChainOnExactBuffers) {
  uint64_t seed = 100;
  float worst = 0.0f;
  for (const Shape4& s : Grid()) {
    SCOPED_TRACE(Describe(s));
    const Tensor q = RandomTensor({s.batch, s.sq, s.heads * s.dk}, seed++);
    const Tensor k = RandomTensor({s.batch, s.sk, s.heads * s.dk}, seed++);
    const Tensor v = RandomTensor({s.batch, s.sk, s.heads * s.dv}, seed++);
    const Tensor mask = MakeCausalMask(s.sq, s.sk);
    const float scale = 1.0f / std::sqrt(static_cast<float>(s.dk));
    const Tensor* m = s.causal ? &mask : nullptr;

    const std::vector<float> qb = ToVector(q), kb = ToVector(k),
                             vb = ToVector(v), mb = ToVector(mask);
    std::vector<float> out(static_cast<size_t>(s.batch * s.sq * s.heads *
                                               s.dv));
    std::vector<float> probs(
        static_cast<size_t>(s.batch * s.heads * s.sq * s.sk));
    raw::AttentionRows(qb.data(), kb.data(), vb.data(), out.data(),
                       probs.data(), s.batch, s.heads, s.sq, s.sk, s.dk,
                       s.dv, scale, s.causal ? mb.data() : nullptr);
    Tensor got = Tensor::Empty({s.batch, s.sq, s.heads * s.dv});
    std::memcpy(got.data(), out.data(), out.size() * sizeof(float));

    NoGradGuard ng;
    const Tensor want =
        ReferenceAttention(Variable(q), Variable(k), Variable(v), s.heads,
                           scale, m)
            .value();
    const float err = NormwiseError(got, want);
    worst = std::max(worst, err);
    EXPECT_LE(err, kFwdTol);

    // The eager op is the same loop: bitwise equal, probabilities
    // written or not.
    const Tensor eager = Attention(q, k, v, s.heads, scale, m);
    EXPECT_EQ(std::memcmp(eager.data(), out.data(),
                          out.size() * sizeof(float)),
              0);
  }
  std::printf("[ fused attention forward: max normwise error %.3g ]\n",
              worst);
}

TEST(AttentionKernelTest, GradientsMatchComposedChain) {
  uint64_t seed = 300;
  float worst = 0.0f;
  for (const Shape4& s : Grid()) {
    SCOPED_TRACE(Describe(s));
    const Tensor q0 = RandomTensor({s.batch, s.sq, s.heads * s.dk}, seed++);
    const Tensor k0 = RandomTensor({s.batch, s.sk, s.heads * s.dk}, seed++);
    const Tensor v0 = RandomTensor({s.batch, s.sk, s.heads * s.dv}, seed++);
    const Tensor w = RandomTensor({s.batch, s.sq, s.heads * s.dv}, seed++);
    const Tensor mask = MakeCausalMask(s.sq, s.sk);
    const float scale = 1.0f / std::sqrt(static_cast<float>(s.dk));
    const Tensor* m = s.causal ? &mask : nullptr;

    // loss = sum(out * w): a generic upstream gradient.
    auto grads = [&](bool fused) {
      Variable q(q0.Clone(), true), k(k0.Clone(), true), v(v0.Clone(), true);
      Variable out = fused ? Attention(q, k, v, s.heads, scale, m)
                           : ReferenceAttention(q, k, v, s.heads, scale, m);
      SumAll(MulConst(out, w)).Backward();
      return std::vector<Tensor>{out.value(), q.grad(), k.grad(), v.grad()};
    };
    const std::vector<Tensor> got = grads(true);
    const std::vector<Tensor> want = grads(false);
    const char* names[] = {"out", "dq", "dk", "dv"};
    for (int i = 1; i < 4; ++i) {
      const float err = NormwiseError(got[i], want[i]);
      worst = std::max(worst, err);
      EXPECT_LE(err, kGradTol) << names[i];
    }
    // Taped and untaped forwards are the same kernel.
    NoGradGuard ng;
    const Tensor untaped = Attention(q0, k0, v0, s.heads, scale, m);
    EXPECT_EQ(std::memcmp(untaped.data(), got[0].data(),
                          untaped.numel() * sizeof(float)),
              0);
  }
  std::printf("[ fused attention gradients: max normwise error %.3g ]\n",
              worst);
}

// Rows of `out` ([b, sq, h*dv] as a flat buffer) with a NaN in head h's
// columns.
std::vector<bool> NanRows(const std::vector<float>& out, int64_t rows,
                          int64_t heads, int64_t dv, int64_t h) {
  std::vector<bool> nan(static_cast<size_t>(rows), false);
  for (int64_t r = 0; r < rows; ++r) {
    for (int64_t d = 0; d < dv; ++d) {
      if (std::isnan(out[r * heads * dv + h * dv + d])) nan[r] = true;
    }
  }
  return nan;
}

TEST(AttentionKernelTest, NanReachesTheRowsThatReadIt) {
  const int64_t b = 1, h = 2, sq = 19, sk = 19, d = 5;
  const float scale = 0.5f;
  const Tensor q = RandomTensor({b, sq, h * d}, 40);
  const Tensor k = RandomTensor({b, sk, h * d}, 41);
  const Tensor v = RandomTensor({b, sk, h * d}, 42);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  auto run = [&](std::vector<float> qb, std::vector<float> kb,
                 std::vector<float> vb) {
    std::vector<float> out(static_cast<size_t>(b * sq * h * d));
    raw::AttentionRows(qb.data(), kb.data(), vb.data(), out.data(), nullptr,
                       b, h, sq, sk, d, d, scale, nullptr);
    return out;
  };
  const int64_t row = 17;  // in the second query block's tail
  {
    // NaN in query row 17, head 1: exactly that row of head 1 is NaN.
    std::vector<float> qb = ToVector(q);
    qb[row * h * d + d + 2] = nan;
    const std::vector<float> out = run(qb, ToVector(k), ToVector(v));
    const std::vector<bool> h1 = NanRows(out, sq, h, d, 1);
    for (int64_t r = 0; r < sq; ++r) EXPECT_EQ(h1[r], r == row) << r;
    for (bool x : NanRows(out, sq, h, d, 0)) EXPECT_FALSE(x);
  }
  {
    // NaN in key row 17, head 0: every query of head 0 reads it.
    std::vector<float> kb = ToVector(k);
    kb[row * h * d + 1] = nan;
    const std::vector<float> out = run(ToVector(q), kb, ToVector(v));
    for (bool x : NanRows(out, sq, h, d, 0)) EXPECT_TRUE(x);
    for (bool x : NanRows(out, sq, h, d, 1)) EXPECT_FALSE(x);
  }
  {
    // NaN in value row 17, head 1, column 3: that column of every row.
    std::vector<float> vb = ToVector(v);
    vb[row * h * d + d + 3] = nan;
    const std::vector<float> out = run(ToVector(q), ToVector(k), vb);
    for (int64_t r = 0; r < sq; ++r) {
      for (int64_t c = 0; c < h * d; ++c) {
        EXPECT_EQ(std::isnan(out[r * h * d + c]), c == d + 3)
            << r << "," << c;
      }
    }
  }
}

}  // namespace
}  // namespace lipformer
