// Fused kernels must be drop-in replacements for the op chains they
// collapse: identical float operations in identical order, so forward
// values AND gradients are bitwise equal to the unfused chain.

#include <gtest/gtest.h>

#include "nn/linear.h"
#include "tests/test_util.h"

namespace lipformer {
namespace {

using testing::BitwiseEqual;
using testing::RandomTensor;

// AttentionBackward's softmax step against autograd through the chain
// its forward fuses, with and without the causal mask.
TEST(FusedOpsTest, ScaledMaskedSoftmaxBackwardMatchesChainGradient) {
  const Tensor x0 = RandomTensor({3, 4, 6, 6}, 11);
  const Tensor g = RandomTensor({3, 4, 6, 6}, 13);
  Tensor causal = Tensor::Empty(Shape{6, 6});
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      causal.data()[i * 6 + j] = j > i ? -1e9f : 0.0f;
    }
  }
  const float scale = 0.40824829f;  // 1/sqrt(6)
  for (const Tensor* mask : {static_cast<const Tensor*>(nullptr),
                             static_cast<const Tensor*>(&causal)}) {
    SCOPED_TRACE(mask != nullptr ? "causal" : "no mask");
    Variable x(x0.Clone(), /*requires_grad=*/true);
    Variable scores = MulScalar(x, scale);
    if (mask != nullptr) scores = AddConst(scores, *mask);
    Variable y = Softmax(scores, -1);
    SumAll(MulConst(y, g)).Backward();
    EXPECT_TRUE(BitwiseEqual(
        ScaledMaskedSoftmaxBackward(g, y.value(), scale), x.grad()));
  }
}

class AddBiasActSweep : public ::testing::TestWithParam<FusedAct> {};

TEST_P(AddBiasActSweep, MatchesUnfusedAddThenActivation) {
  const FusedAct act = GetParam();
  const Tensor x0 = RandomTensor({6, 9, 13}, 21);
  const Tensor b0 = RandomTensor({13}, 22);

  auto unfused_chain = [&](const Variable& x, const Variable& b) {
    Variable z = Add(x, b);
    switch (act) {
      case FusedAct::kNone:
        return z;
      case FusedAct::kRelu:
        return Relu(z);
      case FusedAct::kGelu:
        return Gelu(z);
    }
    return z;
  };

  Variable xa(x0.Clone(), /*requires_grad=*/true);
  Variable ba(b0.Clone(), /*requires_grad=*/true);
  Variable unfused = unfused_chain(xa, ba);
  SumAll(Mul(unfused, unfused)).Backward();

  Variable xb(x0.Clone(), /*requires_grad=*/true);
  Variable bb(b0.Clone(), /*requires_grad=*/true);
  Variable fused = AddBiasAct(xb, bb, act);
  SumAll(Mul(fused, fused)).Backward();

  EXPECT_TRUE(BitwiseEqual(unfused.value(), fused.value()));
  EXPECT_TRUE(BitwiseEqual(xa.grad(), xb.grad()));
  EXPECT_TRUE(BitwiseEqual(ba.grad(), bb.grad()));
}

INSTANTIATE_TEST_SUITE_P(Acts, AddBiasActSweep,
                         ::testing::Values(FusedAct::kNone, FusedAct::kRelu,
                                           FusedAct::kGelu));

TEST(FusedOpsTest, LinearFusedForwardMatchesSeparateActivation) {
  Rng rng(41);
  Linear layer(12, 20, rng);
  const Tensor x0 = RandomTensor({5, 12}, 42);

  for (Activation act : {Activation::kNone, Activation::kRelu,
                         Activation::kGelu, Activation::kTanh,
                         Activation::kSigmoid}) {
    Variable x(x0.Clone());
    Tensor fused = layer.Forward(x, act).value().Clone();
    Tensor separate =
        ApplyActivation(layer.Forward(x), act).value().Clone();
    EXPECT_TRUE(BitwiseEqual(fused, separate))
        << "activation " << ActivationName(act);
  }
}

}  // namespace
}  // namespace lipformer
