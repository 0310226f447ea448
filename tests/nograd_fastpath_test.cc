// Inference fast path: under NoGradGuard, ops must return plain value
// Variables — no tape nodes (MakeNode never reached), no parent capture,
// no requires_grad — and the produced values must be bitwise identical to
// the ones computed through the recorded-tape path.

#include <gtest/gtest.h>

#include "core/lipformer.h"
#include "data/synthetic.h"
#include "nn/attention.h"
#include "tests/test_util.h"

namespace lipformer {
namespace {

using testing::BitwiseEqual;
using testing::RandomTensor;

TEST(NoGradFastPathTest, OpsSkipMakeNodeUnderNoGradGuard) {
  Variable a(RandomTensor({4, 8}, 1), /*requires_grad=*/true);
  Variable b(RandomTensor({4, 8}, 2), /*requires_grad=*/true);
  NoGradGuard ng;
  internal::ResetMakeNodeCalls();
  Variable c = Mul(Add(a, b), a);
  Variable d = Softmax(MatMulTransB(c, b), -1);
  Variable e = SumAll(Gelu(d));
  EXPECT_EQ(internal::MakeNodeCalls(), 0)
      << "no tape nodes may be built inside NoGradGuard";
  EXPECT_FALSE(e.requires_grad());
  EXPECT_TRUE(c.impl()->parents.empty()) << "fast path must not capture parents";
  EXPECT_FALSE(static_cast<bool>(c.impl()->backward_fn));
}

TEST(NoGradFastPathTest, ModelForwardSkipsMakeNode) {
  LiPFormerConfig config;
  config.input_len = 48;
  config.pred_len = 12;
  config.channels = 2;
  config.patch_len = 12;
  config.hidden_dim = 16;
  config.dropout = 0.0f;
  config.seed = 5;
  LiPFormer model(config);
  model.SetTraining(false);

  Batch batch;
  batch.size = 2;
  batch.x = RandomTensor({2, 48, 2}, 3);
  batch.y = Tensor::Zeros({2, 12, 2});

  NoGradGuard ng;
  internal::ResetMakeNodeCalls();
  Variable pred = model.Forward(batch);
  EXPECT_EQ(internal::MakeNodeCalls(), 0);
  EXPECT_FALSE(pred.requires_grad());
  EXPECT_TRUE(pred.impl()->parents.empty());
}

TEST(NoGradFastPathTest, FastPathOutputBitwiseMatchesTapedPath) {
  LiPFormerConfig config;
  config.input_len = 48;
  config.pred_len = 12;
  config.channels = 2;
  config.patch_len = 12;
  config.hidden_dim = 16;
  config.dropout = 0.0f;
  config.seed = 5;
  LiPFormer model(config);
  model.SetTraining(false);

  Batch batch;
  batch.size = 2;
  batch.x = RandomTensor({2, 48, 2}, 3);
  batch.y = Tensor::Zeros({2, 12, 2});

  Tensor taped;
  {
    internal::ResetMakeNodeCalls();
    Variable pred = model.Forward(batch);
    EXPECT_GT(internal::MakeNodeCalls(), 0)
        << "sanity: the taped path must actually build nodes";
    taped = pred.value().Clone();
  }
  Tensor fast;
  {
    NoGradGuard ng;
    fast = model.Forward(batch).value().Clone();
  }
  EXPECT_TRUE(BitwiseEqual(taped, fast))
      << "fast-path inference must be bitwise identical to the taped path";
}

}  // namespace
}  // namespace lipformer
