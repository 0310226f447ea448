// Tests for the thread-pool tensor backend (ISSUE 1) and the eval /
// MAC-accounting bugfixes that rode along with it:
//  - ParallelFor covers every index exactly once at any chunking;
//  - kernel outputs are bitwise identical for 1, 2 and 8 threads on the
//    shapes LiPFormer exercises (batched matmul, broadcast elementwise,
//    softmax, reductions);
//  - the MAC counter reports the theoretical shape-based count at every
//    thread count, independent of data sparsity, and sums exactly under
//    concurrent MatMuls;
//  - an evaluation over an empty split reports NaN (not a perfect 0.0)
//    and EarlyStopping never treats NaN as an improvement;
//  - dropout masks are deterministic per seed at any thread count.

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "models/factory.h"
#include "nn/dropout.h"
#include "optim/early_stopping.h"
#include "tensor/ops.h"
#include "tests/test_util.h"
#include "train/trainer.h"

namespace lipformer {
namespace {

using testing::BitwiseEqual;
using testing::RandomTensor;

// Runs fn with the global kernel thread count pinned to `threads` and
// restores the default afterwards.
template <typename Fn>
void WithThreads(int threads, Fn fn) {
  SetNumThreads(threads);
  fn();
  SetNumThreads(DefaultNumThreads());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  for (int threads : {1, 2, 3, 8}) {
    WithThreads(threads, [&] {
      for (int64_t n : {0LL, 1LL, 7LL, 1000LL, 100000LL}) {
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        ParallelFor(n, /*grain=*/128, [&](int64_t begin, int64_t end) {
          ASSERT_LE(0, begin);
          ASSERT_LE(begin, end);
          ASSERT_LE(end, n);
          for (int64_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
        for (int64_t i = 0; i < n; ++i) {
          ASSERT_EQ(hits[i].load(), 1) << "index " << i << " with "
                                       << threads << " threads";
        }
      }
    });
  }
}

TEST(ThreadPoolTest, NestedParallelForFallsBackToSerial) {
  WithThreads(4, [&] {
    std::atomic<int64_t> total{0};
    ParallelFor(64, 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        ParallelFor(100, 1, [&](int64_t b2, int64_t e2) {
          total.fetch_add(e2 - b2);
        });
      }
    });
    EXPECT_EQ(total.load(), 64 * 100);
  });
}

TEST(ThreadPoolTest, EnvDefaultIsAtLeastOne) {
  EXPECT_GE(DefaultNumThreads(), 1);
  EXPECT_GE(HardwareThreads(), 1);
  EXPECT_GE(GetNumThreads(), 1);
}

TEST(ThreadPoolTest, ThreadCountsParseStrictly) {
  int n = -1;
  EXPECT_TRUE(ParseNumThreads("1", &n));
  EXPECT_EQ(n, 1);
  EXPECT_TRUE(ParseNumThreads("2147483647", &n));
  EXPECT_EQ(n, std::numeric_limits<int>::max());
  for (const char* bad : {"", "0", "-1", "4abc", "1e3", " ", "2147483648",
                          "4294967297", "99999999999"}) {
    n = -1;
    EXPECT_FALSE(ParseNumThreads(bad, &n)) << bad;
    EXPECT_EQ(n, -1) << bad;
  }
}

TEST(ThreadPoolTest, InvalidEnvThreadCountFallsBackToHardware) {
  const char* saved = std::getenv("LIPF_NUM_THREADS");
  const std::string restore = saved == nullptr ? "" : saved;
  ASSERT_EQ(setenv("LIPF_NUM_THREADS", "3", 1), 0);
  EXPECT_EQ(DefaultNumThreads(), 3);
  // atoi used to read these as 4, 1 and an overflowed 1215752191.
  for (const char* bad : {"4abc", "1e3", "99999999999", "0"}) {
    ASSERT_EQ(setenv("LIPF_NUM_THREADS", bad, 1), 0);
    EXPECT_EQ(DefaultNumThreads(), HardwareThreads()) << bad;
  }
  if (saved == nullptr) {
    unsetenv("LIPF_NUM_THREADS");
  } else {
    setenv("LIPF_NUM_THREADS", restore.c_str(), 1);
  }
}

// Computes every kernel the backend parallelizes on LiPFormer-sized
// shapes; returns the results in a fixed order for bitwise comparison.
std::vector<Tensor> RunKernelSuite() {
  std::vector<Tensor> out;
  // Batched matmul on the acceptance workload shape [b*c, n, hd].
  Tensor ma = RandomTensor({64, 96, 128}, 11);
  Tensor mb = RandomTensor({64, 128, 96}, 12);
  out.push_back(MatMul(ma, mb));
  // Broadcast batch dims and vector promotion.
  out.push_back(MatMul(RandomTensor({2, 1, 3, 5, 7}, 13),
                       RandomTensor({3, 7, 6}, 14)));
  out.push_back(MatMul(RandomTensor({7}, 15), RandomTensor({7, 4}, 16)));
  out.push_back(MatMul(RandomTensor({5, 7}, 17), RandomTensor({7}, 18)));
  // Packed GEMM spanning several KC/MC blocks, plus the transpose-folded
  // variants used by attention scores and the Linear backward pass.
  out.push_back(MatMul(RandomTensor({300, 270, 130}, 61),
                       RandomTensor({130, 140}, 62)));
  out.push_back(MatMulTransB(RandomTensor({6, 24, 14}, 63),
                             RandomTensor({6, 24, 14}, 64)));
  out.push_back(MatMulTransA(RandomTensor({6, 14, 24}, 65),
                             RandomTensor({6, 14, 24}, 66)));
  // Data-movement kernels parallelized on the same grain scheme.
  Tensor dm = RandomTensor({12, 34, 56}, 67);
  out.push_back(Permute(dm, {2, 0, 1}));
  out.push_back(Concat({dm, RandomTensor({12, 10, 56}, 68)}, 1));
  out.push_back(Slice(dm, 1, 3, 29));
  out.push_back(IndexSelect(dm, 2, {55, 0, 17, 17, 3}));
  out.push_back(Pad(dm, 1, 2, 5));
  // Elementwise, same-shape and broadcast.
  Tensor ea = RandomTensor({8, 4, 16, 32}, 19);
  Tensor eb = RandomTensor({8, 4, 16, 32}, 20);
  out.push_back(Add(ea, eb));
  out.push_back(Mul(ea, RandomTensor({16, 1}, 21)));
  out.push_back(Gelu(RandomTensor({100000}, 22)));
  out.push_back(Relu(RandomTensor({33333}, 23)));
  // Softmax / LogSoftmax along last and middle dims.
  Tensor sm = RandomTensor({8, 12, 64}, 24);
  out.push_back(Softmax(sm, -1));
  out.push_back(Softmax(sm, 1));
  out.push_back(LogSoftmax(sm, -1));
  // Reductions.
  Tensor rd = RandomTensor({16, 24, 32}, 25);
  out.push_back(Sum(rd, 0));
  out.push_back(Sum(rd, 2, /*keepdim=*/true));
  out.push_back(Mean(rd, 1));
  auto mx = Max(rd, 1);
  out.push_back(mx.first);
  out.push_back(mx.second);
  return out;
}

TEST(ThreadInvarianceTest, KernelsAreBitwiseIdenticalAcrossThreadCounts) {
  std::vector<Tensor> reference;
  WithThreads(1, [&] { reference = RunKernelSuite(); });
  for (int threads : {2, 8}) {
    std::vector<Tensor> got;
    WithThreads(threads, [&] { got = RunKernelSuite(); });
    ASSERT_EQ(got.size(), reference.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(got[i], reference[i]))
          << "kernel " << i << " differs at " << threads << " threads";
    }
  }
}

TEST(MacCountTest, TheoreticalCountAtEveryThreadCount) {
  const int64_t expected = 4 * 8 * 16 * 8;  // nbatch * m * n * k
  for (int threads : {1, 2, 8}) {
    WithThreads(threads, [&] {
      Tensor a = RandomTensor({4, 8, 16}, 31);
      Tensor b = RandomTensor({4, 16, 8}, 32);
      ResetMacCount();
      SetMacCountingEnabled(true);
      (void)MatMul(a, b);
      SetMacCountingEnabled(false);
      EXPECT_EQ(MacCount(), expected) << threads << " threads";
      ResetMacCount();
    });
  }
}

TEST(MacCountTest, CountIndependentOfDataSparsity) {
  // Regression: the old serial kernel skipped multiply-adds for zero
  // activations but still charged the full m*n*k, so reported MACs
  // over-counted the executed work on sparse (e.g. post-ReLU) inputs.
  // The counter and the kernel now both use the theoretical count.
  const int64_t expected = 2 * 8 * 8 * 16;
  Tensor dense_a = RandomTensor({2, 8, 16}, 33);
  Tensor b = RandomTensor({2, 16, 8}, 34);
  Tensor sparse_a = Tensor::Zeros({2, 8, 16});

  ResetMacCount();
  SetMacCountingEnabled(true);
  (void)MatMul(dense_a, b);
  const int64_t dense_macs = MacCount();
  ResetMacCount();
  (void)MatMul(sparse_a, b);
  const int64_t sparse_macs = MacCount();
  SetMacCountingEnabled(false);
  ResetMacCount();

  EXPECT_EQ(dense_macs, expected);
  EXPECT_EQ(sparse_macs, expected);
}

TEST(MacCountTest, SumsExactlyUnderConcurrentMatMuls) {
  const int64_t per_call = 2 * 16 * 16 * 8;
  const int num_threads = 4;
  const int calls_per_thread = 8;
  ResetMacCount();
  SetMacCountingEnabled(true);
  std::vector<std::thread> workers;
  for (int t = 0; t < num_threads; ++t) {
    workers.emplace_back([&, t] {
      Tensor a = RandomTensor({2, 16, 8}, 40 + t);
      Tensor b = RandomTensor({2, 8, 16}, 50 + t);
      for (int c = 0; c < calls_per_thread; ++c) (void)MatMul(a, b);
    });
  }
  for (auto& w : workers) w.join();
  SetMacCountingEnabled(false);
  EXPECT_EQ(MacCount(), per_call * num_threads * calls_per_thread);
  ResetMacCount();
}

// A dataset whose val range is too short to hold a single window: 200
// rows, 160 train / 40 test leaves n_val = 0, and 0 + input_len rows of
// extended lookback < input_len + pred_len.
WindowDataset MakeEmptyValDataset() {
  SeasonalConfig gen;
  gen.steps = 200;
  gen.channels = 2;
  TimeSeries series = GenerateSeasonal(gen);
  WindowDataset::Options options;
  options.input_len = 24;
  options.pred_len = 8;
  options.train_ratio = 0.8;
  options.val_ratio = 0.0;
  options.test_ratio = 0.2;
  return WindowDataset(series, options);
}

TEST(EmptySplitTest, EvaluateReturnsNaNNotZero) {
  WindowDataset data = MakeEmptyValDataset();
  ASSERT_EQ(data.NumWindows(Split::kVal), 0);
  ASSERT_GT(data.NumWindows(Split::kTest), 0);

  ForecasterDims dims{24, 8, data.channels()};
  std::unique_ptr<Forecaster> model = CreateModel("dlinear", dims);

  const EvalResult empty = Evaluate(model.get(), data, Split::kVal);
  EXPECT_TRUE(std::isnan(empty.mse));
  EXPECT_TRUE(std::isnan(empty.mae));

  const EvalResult test = Evaluate(model.get(), data, Split::kTest);
  EXPECT_FALSE(std::isnan(test.mse));
  EXPECT_FALSE(std::isnan(test.mae));
}

TEST(EmptySplitTest, TrainingWithEmptyValDoesNotSnapshotAsBest) {
  WindowDataset data = MakeEmptyValDataset();
  ForecasterDims dims{24, 8, data.channels()};
  std::unique_ptr<Forecaster> model = CreateModel("dlinear", dims);

  TrainConfig config;
  config.epochs = 5;
  config.patience = 2;
  config.max_batches_per_epoch = 4;
  const TrainResult result = TrainAndEvaluate(model.get(), data, config);

  // Every validation score is NaN, so no epoch ever becomes "best": the
  // stopper halts after `patience` epochs and best_val_loss stays at the
  // +inf sentinel instead of the old bogus 0.0.
  EXPECT_EQ(result.epochs_run, config.patience);
  EXPECT_TRUE(std::isinf(result.best_val_loss));
  EXPECT_FALSE(std::isnan(result.test.mse));
}

TEST(EarlyStoppingTest, NaNIsNeverAnImprovement) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EarlyStopping stopper(/*patience=*/2);
  EXPECT_FALSE(stopper.Update(nan));
  EXPECT_FALSE(stopper.ShouldStop());
  EXPECT_TRUE(stopper.Update(1.0f));  // finite score still improves
  EXPECT_FLOAT_EQ(stopper.best_score(), 1.0f);
  EXPECT_FALSE(stopper.Update(nan));  // NaN does not beat 1.0
  EXPECT_FLOAT_EQ(stopper.best_score(), 1.0f);
  EXPECT_FALSE(stopper.Update(nan));
  EXPECT_TRUE(stopper.ShouldStop());
  EXPECT_EQ(stopper.best_epoch(), 1);
}

TEST(EarlyStoppingTest, AllNaNStopsAtPatienceWithInfBest) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EarlyStopping stopper(/*patience=*/3);
  for (int i = 0; i < 3; ++i) EXPECT_FALSE(stopper.Update(nan));
  EXPECT_TRUE(stopper.ShouldStop());
  EXPECT_TRUE(std::isinf(stopper.best_score()));
}

TEST(DropoutTest, MaskDeterministicPerSeedAcrossThreadCounts) {
  const Tensor x = Tensor::Ones({4096});
  Tensor reference;
  for (int threads : {1, 8}) {
    WithThreads(threads, [&] {
      Rng rng(77);
      Dropout dropout(0.5f, rng);
      dropout.SetTraining(true);
      const Tensor out = dropout.Forward(Variable(x)).value();
      if (threads == 1) {
        reference = out;
      } else {
        EXPECT_TRUE(BitwiseEqual(out, reference));
      }
    });
  }
  // Sanity: the mask actually dropped something and scaled survivors.
  int64_t zeros = 0;
  for (int64_t i = 0; i < reference.numel(); ++i) {
    if (reference.data()[i] == 0.0f) {
      ++zeros;
    } else {
      EXPECT_FLOAT_EQ(reference.data()[i], 2.0f);
    }
  }
  EXPECT_GT(zeros, 0);
  EXPECT_LT(zeros, reference.numel());
}

TEST(ThreadInvarianceTest, ModelForwardIdenticalAcrossThreadCounts) {
  SeasonalConfig gen;
  gen.steps = 400;
  gen.channels = 3;
  TimeSeries series = GenerateSeasonal(gen);
  WindowDataset::Options options;
  options.input_len = 48;
  options.pred_len = 12;
  WindowDataset data(series, options);
  Batch batch = data.MakeBatch(Split::kTrain, {0, 1, 2, 3});

  auto forward = [&]() {
    ForecasterDims dims{48, 12, data.channels()};
    ModelOptions mo;
    mo.seed = 5;
    mo.dropout = 0.0f;
    std::unique_ptr<Forecaster> model = CreateModel("patchtst", dims, mo);
    model->SetTraining(false);
    NoGradGuard ng;
    return model->Forward(batch).value();
  };

  Tensor reference;
  WithThreads(1, [&] { reference = forward(); });
  for (int threads : {2, 8}) {
    Tensor got;
    WithThreads(threads, [&] { got = forward(); });
    EXPECT_TRUE(BitwiseEqual(got, reference))
        << "forward differs at " << threads << " threads";
  }
}

}  // namespace
}  // namespace lipformer
