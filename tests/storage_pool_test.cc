// Storage pool contract: size-class rounding, release-to-freelist reuse,
// refcounted sharing, cross-thread traffic, zero-fill semantics on top of
// recycled (dirty) blocks, the end-to-end guarantee that the pool never
// changes numerics — a model forward/backward is bitwise identical with
// the pool on and off, at any thread count — and the steady-state
// allocation budget of train, inference and serving steps.

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/lipformer.h"
#include "data/scaler.h"
#include "data/synthetic.h"
#include "models/factory.h"
#include "serve/session.h"
#include "tensor/storage_pool.h"
#include "tests/test_util.h"

namespace lipformer {
namespace {

using testing::RandomTensor;

// Restores pool enablement and thread count on scope exit so a failing
// assertion cannot leak state into later tests.
class PoolStateScope {
 public:
  PoolStateScope() : enabled_(StoragePoolEnabled()) {}
  ~PoolStateScope() {
    SetStoragePoolEnabled(enabled_);
    SetNumThreads(DefaultNumThreads());
  }

 private:
  bool enabled_;
};

TEST(StoragePoolTest, SizeClassRounding) {
  EXPECT_EQ(StorageCapacityForNumel(0), 16);
  EXPECT_EQ(StorageCapacityForNumel(1), 16);
  EXPECT_EQ(StorageCapacityForNumel(16), 16);
  EXPECT_EQ(StorageCapacityForNumel(17), 32);
  EXPECT_EQ(StorageCapacityForNumel(32), 32);
  EXPECT_EQ(StorageCapacityForNumel(33), 64);
  EXPECT_EQ(StorageCapacityForNumel(1000), 1024);
  EXPECT_EQ(StorageCapacityForNumel(1024), 1024);
  EXPECT_EQ(StorageCapacityForNumel(1025), 2048);
}

TEST(StoragePoolTest, ReleaseParksBlockAndNextAcquireReusesIt) {
  PoolStateScope scope;
  SetStoragePoolEnabled(true);
  ClearStoragePool();
  ResetStoragePoolCounters();

  float* first = nullptr;
  {
    Storage s = Storage::Acquire(100);
    first = s.data();
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(s.capacity(), 128);
  }  // released -> parked on the 128-float freelist

  Storage t = Storage::Acquire(100);
  EXPECT_EQ(t.data(), first) << "same size class must pop the parked block";

  const StoragePoolStats stats = GetStoragePoolStats();
  EXPECT_EQ(stats.acquires, 2);
  EXPECT_EQ(stats.pool_hits, 1);
  EXPECT_EQ(stats.heap_allocs, 1);
}

TEST(StoragePoolTest, CopiedHandlesShareTheBlock) {
  Storage s = Storage::Acquire(10);
  s.data()[3] = 42.0f;
  Storage t = s;
  EXPECT_TRUE(t.SharesWith(s));
  EXPECT_EQ(t.data(), s.data());
  EXPECT_EQ(t.data()[3], 42.0f);
  t.data()[3] = 7.0f;
  EXPECT_EQ(s.data()[3], 7.0f);

  Storage moved = std::move(t);
  EXPECT_TRUE(moved.SharesWith(s));
  EXPECT_EQ(t.data(), nullptr);  // NOLINT(bugprone-use-after-move)
}

TEST(StoragePoolTest, ZerosIsZeroOnTopOfDirtyRecycledBlocks) {
  PoolStateScope scope;
  SetStoragePoolEnabled(true);
  // Dirty a block, release it, then ask for zeros of the same class: the
  // recycled block must still come back fully zeroed.
  { Tensor dirty = Tensor::Full(Shape{100}, 3.25f); }
  Tensor z = Tensor::Zeros(Shape{100});
  for (int64_t i = 0; i < z.numel(); ++i) {
    ASSERT_EQ(z.data()[i], 0.0f) << "index " << i;
  }
  { Tensor dirty = Tensor::Full(Shape{100}, -1.5f); }
  Tensor f = Tensor::Full(Shape{100}, 2.0f);
  for (int64_t i = 0; i < f.numel(); ++i) {
    ASSERT_EQ(f.data()[i], 2.0f) << "index " << i;
  }
}

TEST(StoragePoolTest, DisabledPoolStillWorksAndDoesNotPark) {
  PoolStateScope scope;
  SetStoragePoolEnabled(false);
  ClearStoragePool();
  ResetStoragePoolCounters();
  {
    Storage s = Storage::Acquire(64);
    ASSERT_NE(s.data(), nullptr);
    s.data()[0] = 1.0f;
  }
  const StoragePoolStats stats = GetStoragePoolStats();
  EXPECT_EQ(stats.pool_hits, 0);
  EXPECT_EQ(stats.heap_allocs, 1);
  EXPECT_EQ(stats.bytes_pooled, 0) << "disabled pool must not park blocks";
}

TEST(StoragePoolTest, CrossThreadAcquireReleaseIsSafe) {
  PoolStateScope scope;
  SetStoragePoolEnabled(true);
  ResetStoragePoolCounters();

  // Blocks allocated on the main thread, released on workers, and
  // re-acquired concurrently — the sanitizer build (scripts/
  // check_sanitize.sh) runs this under TSan.
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::vector<Storage>> handoff(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < 8; ++i) {
      Storage s = Storage::Acquire(64 * (i + 1));
      s.data()[0] = static_cast<float>(t);
      handoff[t].push_back(std::move(s));
    }
  }
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&handoff, t] {
      handoff[t].clear();  // release main-thread blocks on this thread
      for (int i = 0; i < kIters; ++i) {
        Storage s = Storage::Acquire(16 + (i % 7) * 100);
        s.data()[0] = static_cast<float>(i);
        Storage copy = s;
        ASSERT_EQ(copy.data()[0], static_cast<float>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();

  const StoragePoolStats stats = GetStoragePoolStats();
  EXPECT_EQ(stats.acquires, stats.pool_hits + stats.heap_allocs);
  EXPECT_GE(stats.acquires, kThreads * kIters);
}

TEST(StoragePoolTest, EmptyTensorHasShapeAndWritableStorage) {
  Tensor t = Tensor::Empty(Shape{3, 5});
  EXPECT_EQ(t.shape(), (Shape{3, 5}));
  EXPECT_EQ(t.numel(), 15);
  t.Fill(1.5f);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.data()[i], 1.5f);
}

// Runs one deterministic forward/backward and returns the prediction bits
// plus every parameter-gradient tensor (cloned: grad buffers are reused
// across steps).
struct StepResult {
  Tensor pred;
  std::vector<Tensor> grads;
};

StepResult RunTrainStep(const Batch& batch) {
  LiPFormerConfig config;
  config.input_len = 48;
  config.pred_len = 12;
  config.channels = 3;
  config.patch_len = 12;
  config.hidden_dim = 16;
  config.dropout = 0.0f;
  config.seed = 77;
  LiPFormer model(config);
  Variable pred = model.Forward(batch);
  MseLoss(pred, batch.y).Backward();
  StepResult result;
  result.pred = pred.value().Clone();
  for (const Variable& p : model.Parameters()) {
    result.grads.push_back(p.grad().Clone());
  }
  return result;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

TEST(StoragePoolTest, ModelStepBitwiseIdenticalPoolOnVsOffAcrossThreads) {
  PoolStateScope scope;
  SeasonalConfig gen;
  gen.steps = 200;
  gen.channels = 3;
  TimeSeries series = GenerateSeasonal(gen);
  WindowDataset::Options options;
  options.input_len = 48;
  options.pred_len = 12;
  WindowDataset data(series, options);
  Batch batch = data.MakeBatch(Split::kTrain, {0, 1, 2});

  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    SetStoragePoolEnabled(true);
    StepResult pooled = RunTrainStep(batch);
    SetStoragePoolEnabled(false);
    ClearStoragePool();
    StepResult heap = RunTrainStep(batch);

    EXPECT_TRUE(BitwiseEqual(pooled.pred, heap.pred))
        << "prediction differs with pool on vs off at threads=" << threads;
    ASSERT_EQ(pooled.grads.size(), heap.grads.size());
    for (size_t i = 0; i < pooled.grads.size(); ++i) {
      EXPECT_TRUE(BitwiseEqual(pooled.grads[i], heap.grads[i]))
          << "grad " << i << " differs at threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------
// Allocation contract. After one warm-up step has filled the freelists, a
// steady-state step takes its storages from the pool: at threads 1, on
// the 96 -> 24 x 7-channel LiPFormer (patch 24, hidden 64, batch 8), a
// train step acquires at most 477 storages and reaches the heap about
// once, an eval forward acquires at most 197 and never reaches the heap,
// and the plan-served Predict/PredictBatch never reach the heap, at 1 and
// at 4 threads. The
// bounds are the measured per-step counts plus 0.5; a change that adds
// tensors to a step has to raise them on purpose.

constexpr int kMeasuredSteps = 50;

struct PoolTraffic {
  double acquires_per_step = 0;
  double heap_allocs_per_step = 0;
};

// Runs `step` `warmup` times to warm the pool, then kMeasuredSteps times
// with the counters reset, and returns the per-step traffic.
template <typename Fn>
PoolTraffic MeasurePoolTraffic(Fn step, int warmup = 1) {
  for (int i = 0; i < warmup; ++i) step();
  ResetStoragePoolCounters();
  for (int i = 0; i < kMeasuredSteps; ++i) step();
  const StoragePoolStats stats = GetStoragePoolStats();
  PoolTraffic traffic;
  traffic.acquires_per_step =
      static_cast<double>(stats.acquires) / kMeasuredSteps;
  traffic.heap_allocs_per_step =
      static_cast<double>(stats.heap_allocs) / kMeasuredSteps;
  return traffic;
}

class AllocationContractTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetNumThreads(1);
    SetStoragePoolEnabled(true);
    config_.input_len = 96;
    config_.pred_len = 24;
    config_.channels = 7;
    config_.patch_len = 24;
    config_.hidden_dim = 64;
  }

  Batch MakeBatch(Split split) const {
    SeasonalConfig gen;
    gen.steps = 600;
    gen.channels = config_.channels;
    WindowDataset::Options options;
    options.input_len = config_.input_len;
    options.pred_len = config_.pred_len;
    WindowDataset data(GenerateSeasonal(gen), options);
    return data.MakeBatch(split, {0, 1, 2, 3, 4, 5, 6, 7});
  }

  PoolStateScope scope_;
  LiPFormerConfig config_;
};

TEST_F(AllocationContractTest, TrainStepReusesPooledStorage) {
  LiPFormer model(config_);
  const Batch batch = MakeBatch(Split::kTrain);
  const PoolTraffic traffic = MeasurePoolTraffic([&] {
    model.ZeroGrad();
    MseLoss(model.Forward(batch), batch.y).Backward();
  });
  EXPECT_LE(traffic.acquires_per_step, 477.5);
  EXPECT_LE(traffic.heap_allocs_per_step, 1.5);
}

TEST_F(AllocationContractTest, InferenceStepNeverReachesTheHeap) {
  LiPFormer model(config_);
  model.SetTraining(false);
  const Batch batch = MakeBatch(Split::kTest);
  NoGradGuard no_grad;
  const PoolTraffic traffic =
      MeasurePoolTraffic([&] { (void)model.Forward(batch); });
  EXPECT_LE(traffic.acquires_per_step, 197.5);
  EXPECT_EQ(traffic.heap_allocs_per_step, 0);
}

TEST_F(AllocationContractTest, PlanServingNeverReachesTheHeap) {
  ForecasterDims dims;
  dims.input_len = config_.input_len;
  dims.pred_len = config_.pred_len;
  dims.channels = config_.channels;
  ModelOptions options;
  options.patch_len = config_.patch_len;
  options.hidden_dim = config_.hidden_dim;
  std::unique_ptr<Forecaster> model = CreateModel("lipformer", dims, options);
  StandardScaler scaler;
  scaler.Fit(RandomTensor({64, dims.channels}, 3));
  const std::string path = ::testing::TempDir() + "/alloc_contract.ckpt";
  ASSERT_TRUE(
      serve::SaveModelBundle(path, "lipformer", options, *model, scaler).ok());
  auto opened = serve::InferenceSession::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  serve::InferenceSession* session = opened.value().get();

  const Tensor window = RandomTensor({dims.input_len, dims.channels}, 4);
  const Tensor batch =
      RandomTensor({16, dims.input_len, dims.channels}, 5);
  // At 4 threads up to 4 rows (or a lone row's GEMM chunks) run at once,
  // each leasing its own slab and scratch. The pool parks as many blocks
  // as the busiest call held, so warm up over enough calls to see that
  // peak whatever the scheduling.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    SetNumThreads(threads);
    const int warmup = threads == 1 ? 1 : 20;
    bool ok = true;
    const PoolTraffic single = MeasurePoolTraffic(
        [&] { ok = session->Predict(window).ok() && ok; }, warmup);
    const PoolTraffic batched = MeasurePoolTraffic(
        [&] { ok = session->PredictBatch(batch).ok() && ok; }, warmup);
    EXPECT_TRUE(ok);
    EXPECT_EQ(single.heap_allocs_per_step, 0);
    EXPECT_EQ(batched.heap_allocs_per_step, 0);
  }
}

}  // namespace
}  // namespace lipformer
