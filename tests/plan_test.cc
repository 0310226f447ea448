#include "serve/plan.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "serve/arena.h"
#include "serve/batcher.h"
#include "serve/quantize.h"
#include "serve/session.h"
#include "tests/test_util.h"

// AOT inference plans (serve/plan.h): the contract under test is bitwise
// identity with the module forward — same bundle, same input, byte-equal
// output — for fp32 and quantized bundles and for every registered model,
// serial and batched.

namespace lipformer {
namespace {

using testing::RandomTensor;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FreshTempPath(const std::string& name) {
  const std::string path = TempPath(name);
  std::remove(path.c_str());
  return path;
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// The module-forward oracle: the bundle's model rebuilt outside any
// session, run on [b, input_len, channels] histories.
class ModuleOracle {
 public:
  explicit ModuleOracle(const std::string& bundle) {
    Result<serve::BundleModel> loaded = serve::LoadBundleModel(bundle);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    if (loaded.ok()) bundle_ = loaded.MoveValue();
  }

  Tensor Forward(const Tensor& histories) {
    return bundle_.Forward(histories);
  }
  // One [input_len, channels] window -> [pred_len, channels].
  Tensor Predict(const Tensor& window) {
    return Forward(window.Reshape({1, window.size(0), window.size(1)}))
        .Reshape({bundle_.model->pred_len(), bundle_.model->channels()});
  }

 private:
  serve::BundleModel bundle_;
};

// The serving contracts for one bundle: Open succeeds; every batch size
// has a plan; on `inputs_per_size` fresh inputs per batch size the plan
// answer is bitwise equal to the module forward; and every row of a
// batched answer is bitwise equal to the serial answer for that row.
void ExpectServingContracts(const std::string& bundle,
                            const std::vector<int64_t>& batch_sizes,
                            int inputs_per_size = 1) {
  SCOPED_TRACE(bundle);
  auto opened = serve::InferenceSession::Open(bundle);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  serve::InferenceSession* session = opened.value().get();
  ModuleOracle oracle(bundle);

  const int64_t in = session->input_len();
  const int64_t ch = session->channels();
  uint64_t seed = 900;
  for (const int64_t b : batch_sizes) {
    ASSERT_NE(session->PlanForBatch(b), nullptr) << "batch size " << b;
    for (int i = 0; i < inputs_per_size; ++i) {
      const Tensor histories = RandomTensor({b, in, ch}, seed++);
      auto got = session->PredictBatch(histories);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(BitwiseEqual(got.value(), oracle.Forward(histories)))
          << "plan vs module, batch size " << b << ", input " << i;
      if (b == 1) continue;
      for (int64_t r = 0; r < b; ++r) {
        auto serial = session->Predict(Slice(histories, 0, r, r + 1)
                                           .Reshape({in, ch}));
        ASSERT_TRUE(serial.ok()) << serial.status().ToString();
        EXPECT_TRUE(BitwiseEqual(
            Slice(got.value(), 0, r, r + 1)
                .Reshape(serial.value().shape()),
            serial.value()))
            << "batched vs serial, batch size " << b << ", row " << r;
      }
    }
  }
}

// Restores the tensor thread count on scope exit.
class ThreadCountGuard {
 public:
  ThreadCountGuard() : saved_(GetNumThreads()) {}
  ~ThreadCountGuard() { SetNumThreads(saved_); }
  int saved() const { return saved_; }

 private:
  int saved_;
};

// The thread-count leg of the mode matrix: for b in {1, 3, 16}, the
// session's answers at one and at four tensor threads are bitwise equal
// to its answers at the default thread count.
void ExpectThreadCountInvariance(const std::string& bundle) {
  SCOPED_TRACE(bundle);
  auto opened = serve::InferenceSession::Open(bundle);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  serve::InferenceSession* session = opened.value().get();
  const ThreadCountGuard guard;
  uint64_t seed = 950;
  for (const int64_t b : {1, 3, 16}) {
    SetNumThreads(guard.saved());
    const Tensor histories =
        RandomTensor({b, session->input_len(), session->channels()}, seed++);
    auto want = session->PredictBatch(histories);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    for (const int threads : {1, 4}) {
      SetNumThreads(threads);
      auto got = session->PredictBatch(histories);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_TRUE(BitwiseEqual(got.value(), want.value()))
          << threads << " threads vs default, batch size " << b;
    }
  }
}

// A served plan performs exactly the multiply-accumulates the eager
// forward charges: Σ PlanOp::macs of the plan, the MAC counter
// over one plan execution, and the counter over one module forward agree.
void ExpectPlanMacsMatchEager(const std::string& bundle) {
  SCOPED_TRACE(bundle);
  auto opened = serve::InferenceSession::Open(bundle);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::shared_ptr<const serve::InferencePlan> plan =
      opened.value()->PlanForBatch(1);
  ASSERT_NE(plan, nullptr);
  ModuleOracle oracle(bundle);
  const Tensor x = RandomTensor(plan->input_shape(), 960);
  ResetMacCount();
  SetMacCountingEnabled(true);
  (void)oracle.Forward(x);
  const int64_t eager = MacCount();
  ResetMacCount();
  (void)plan->Execute(x);
  const int64_t executed = MacCount();
  SetMacCountingEnabled(false);
  ResetMacCount();
  EXPECT_GT(eager, 0);
  EXPECT_EQ(plan->stats().macs, eager);
  EXPECT_EQ(executed, eager);
}

class PlanTest : public ::testing::Test {
 protected:
  // Same small-but-real LiPFormer bundle the session tests use:
  // 24 -> 6 over 2 channels, hidden 8 (below the quantizer floor).
  void SetUp() override {
    dims_.input_len = 24;
    dims_.pred_len = 6;
    dims_.channels = 2;
    options_.hidden_dim = 8;
    options_.num_heads = 2;
    options_.patch_len = 8;
    options_.seed = 11;
    std::unique_ptr<Forecaster> model =
        CreateModel("lipformer", dims_, options_);
    Rng rng(12);
    scaler_.Fit(Tensor::Randn({64, dims_.channels}, rng));
    path_ = TempPath("plan_bundle.ckpt");
    ASSERT_TRUE(serve::SaveModelBundle(path_, "lipformer", options_, *model,
                                       scaler_)
                    .ok());
  }

  // Bundle whose attention projections (hidden 16) clear the quantizer's
  // shape floor, so the int8 plan path actually has quantized Linears.
  std::string QuantizedBundlePath() {
    ModelOptions options = options_;
    options.hidden_dim = 16;
    std::unique_ptr<Forecaster> model =
        CreateModel("lipformer", dims_, options);
    const std::string fp32 = TempPath("plan_bundle_h16.ckpt");
    EXPECT_TRUE(serve::SaveModelBundle(fp32, "lipformer", options, *model,
                                       scaler_)
                    .ok());
    const std::string int8 = FreshTempPath("plan_bundle_h16_int8.ckpt");
    EXPECT_TRUE(serve::QuantizeBundleFile(fp32, int8, /*force=*/false).ok());
    return int8;
  }

  ForecasterDims dims_;
  ModelOptions options_;
  StandardScaler scaler_;
  std::string path_;
};

TEST_F(PlanTest, CompilesForLipformerBundleAtOpen) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  serve::InferenceSession* session = opened.value().get();

  // Open compiles the session's one plan, and it serves every batch size.
  std::shared_ptr<const serve::InferencePlan> plan = session->PlanForBatch(1);
  ASSERT_NE(plan, nullptr);
  EXPECT_EQ(session->PlanForBatch(3), plan);
  EXPECT_EQ(session->PlanForBatch(16), plan);
  EXPECT_EQ(session->PlanForBatch(0), nullptr);
  EXPECT_EQ(plan->input_shape(), (Shape{1, 24, 2}));
  EXPECT_EQ(plan->output_shape(), (Shape{1, 6, 2}));

  const serve::PlanStats& stats = plan->stats();
  EXPECT_GT(stats.num_ops, 0);
  EXPECT_GE(stats.num_traced, stats.num_ops);
  // One target patch makes the [B, hd, 1] -> [B, 1, hd] transpose an
  // identity copy.
  EXPECT_GT(stats.num_elided, 0);
  // The [B, n, hd] -> [B, hd, n] transpose feeding the patch head folds
  // into that GEMM's pack phase.
  EXPECT_GT(stats.fused_gemm_operands, 0);
  EXPECT_GT(stats.arena_bytes, 0);
  EXPECT_GT(stats.num_constants, 0);
  EXPECT_GT(stats.prepacked_gemms, 0);
}

TEST_F(PlanTest, Fp32BitwiseMatchesModulePath) {
  ExpectServingContracts(path_, {1, 3, 16});
}

TEST_F(PlanTest, QuantizedBitwiseMatchesModulePath) {
  const std::string bundle = QuantizedBundlePath();
  auto opened = serve::InferenceSession::Open(bundle);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(opened.value()->quantized());
  ExpectServingContracts(bundle, {1, 3, 16});
}

TEST_F(PlanTest, OddShapesBitwiseMatchModulePath) {
  // Non-power-of-two everything: input 35 with patch 7, pred 9, three
  // channels — exercises remainder slices and unaligned arena values.
  ForecasterDims dims;
  dims.input_len = 35;
  dims.pred_len = 9;
  dims.channels = 3;
  ModelOptions options;
  options.hidden_dim = 12;
  options.num_heads = 2;
  options.patch_len = 7;
  options.seed = 29;
  std::unique_ptr<Forecaster> model = CreateModel("lipformer", dims, options);
  StandardScaler scaler;
  Rng rng(30);
  scaler.Fit(Tensor::Randn({48, dims.channels}, rng));
  const std::string path = TempPath("plan_bundle_odd.ckpt");
  ASSERT_TRUE(
      serve::SaveModelBundle(path, "lipformer", options, *model, scaler)
          .ok());
  ExpectServingContracts(path, {1, 3, 5});
}

// Model inventory: every registered model must plan-compile and keep the
// serving contracts, at the small test config, at a paper-scale 96 -> 24
// config over 7 channels, and with 3 future covariates (TiDE's constant
// channel-tiling gather). The mode matrix on top: every bundle the
// quantizer accepts keeps the same contracts as int8, and at both 96 -> 24
// configs answers do not depend on the tensor thread count and the plan
// charges the eager MAC count.
TEST(PlanInventoryTest, EveryRegisteredModelServesFromAPlan) {
  // Bundles the quantizer refuses with InvalidArgument: at the small
  // config (hidden 8) only TSMixer has a Linear at the int8 size floor.
  const std::vector<std::string> int8_refused = {
      "lipformer@24x6x2", "dlinear@24x6x2",   "patchtst@24x6x2",
      "transformer@24x6x2", "itransformer@24x6x2", "timemixer@24x6x2",
      "tide@24x6x2",      "informer@24x6x2",  "autoformer@24x6x2",
      "fgnn@24x6x2"};
  struct Config {
    const char* tag;
    ForecasterDims dims;
    ModelOptions options;
  };
  std::vector<Config> configs(3);
  configs[0].tag = "24x6x2";
  configs[0].dims = {24, 6, 2};
  configs[0].options.hidden_dim = 8;
  configs[0].options.num_heads = 2;
  configs[0].options.patch_len = 8;
  configs[1].tag = "96x24x7";
  configs[1].dims = {96, 24, 7};
  configs[1].options.hidden_dim = 16;
  configs[1].options.num_heads = 2;
  configs[1].options.patch_len = 16;
  configs[2] = configs[1];
  configs[2].tag = "96x24x7_cov3";
  configs[2].options.num_covariates = 3;

  for (const Config& config : configs) {
    StandardScaler scaler;
    Rng rng(31);
    scaler.Fit(Tensor::Randn({64, config.dims.channels}, rng));
    for (const std::string& name : RegisteredModelNames()) {
      SCOPED_TRACE(name + " @ " + config.tag);
      std::unique_ptr<Forecaster> model =
          CreateModel(name, config.dims, config.options);
      const std::string path = FreshTempPath(
          "inventory_" + name + "_" + config.tag + ".ckpt");
      ASSERT_TRUE(serve::SaveModelBundle(path, name, config.options, *model,
                                         scaler)
                      .ok());
      // 3 batch sizes x 3 fresh inputs: 9 plan-vs-module comparisons.
      ExpectServingContracts(path, {1, 3, 16}, /*inputs_per_size=*/3);

      const std::string id = name + "@" + config.tag;
      const std::string int8 = FreshTempPath(
          "inventory_" + name + "_" + config.tag + "_int8.ckpt");
      const Status quantized =
          serve::QuantizeBundleFile(path, int8, /*force=*/false);
      const bool refusal_expected =
          std::count(int8_refused.begin(), int8_refused.end(), id) != 0;
      if (quantized.ok()) {
        EXPECT_FALSE(refusal_expected) << id << " quantized";
        ExpectServingContracts(int8, {1, 3, 16});
      } else {
        EXPECT_TRUE(refusal_expected) << quantized.ToString();
        EXPECT_EQ(quantized.code(), StatusCode::kInvalidArgument)
            << quantized.ToString();
      }

      if (config.dims.input_len == 96) {
        ExpectThreadCountInvariance(path);
        ExpectPlanMacsMatchEager(path);
      }
    }
  }
}

// Autoformer chooses its top-k lags per sample, so a served answer does
// not depend on which other requests the batcher put in its batch:
// batched rows equal serial answers bitwise at a paper-scale config.
TEST(PlanInventoryTest, AutoformerBatchedRowsMatchSerial) {
  const ForecasterDims dims{96, 24, 7};
  ModelOptions options;
  options.hidden_dim = 16;
  std::unique_ptr<Forecaster> model = CreateModel("autoformer", dims, options);
  const std::string path = FreshTempPath("autoformer_rows.ckpt");
  ASSERT_TRUE(serve::SaveModelBundle(path, "autoformer", options, *model,
                                     StandardScaler())
                  .ok());
  auto opened = serve::InferenceSession::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  serve::InferenceSession* session = opened.value().get();

  const int64_t b = 4;
  const Tensor histories = RandomTensor({b, 96, 7}, 77);
  auto batched = session->PredictBatch(histories);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  const int64_t row = 24 * 7;
  for (int64_t r = 0; r < b; ++r) {
    Tensor window = Tensor::Empty({96, 7});
    std::memcpy(window.data(), histories.data() + r * 96 * 7,
                sizeof(float) * 96 * 7);
    auto serial = session->Predict(window);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    EXPECT_EQ(std::memcmp(batched.value().data() + r * row,
                          serial.value().data(), sizeof(float) * row),
              0)
        << "row " << r;
  }
}

TEST(PlanCompileTest, UnsupportedOpIsATypedError) {
  // A forward that reaches an op the plan has no kind for cannot be
  // served: compilation reports which op, and nothing falls back.
  auto compiled = serve::InferencePlan::Compile(
      [](const Tensor& in) { return Pad(in, 1, 1, 1); },
      RandomTensor({1, 5}, 3), RandomTensor({3, 5}, 4));
  ASSERT_FALSE(compiled.ok());
  EXPECT_NE(compiled.status().message().find("'Pad'"), std::string::npos)
      << compiled.status().ToString();
}

TEST(PlanCompileTest, ForwardThatMixesRowsIsATypedError) {
  // A plan serves a batch one row at a time, so a forward whose rows
  // interact cannot be served. Its trace compiles and passes the two
  // one-row checks; the 3-row batch check rejects it.
  auto compiled = serve::InferencePlan::Compile(
      [](const Tensor& x) { return Add(x, Sum(x, 0, /*keepdim=*/true)); },
      RandomTensor({1, 4}, 10), RandomTensor({3, 4}, 11));
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInternal);
  EXPECT_NE(compiled.status().message().find("mixes rows"), std::string::npos)
      << compiled.status().ToString();
}

TEST(PlanCompileTest, SharedGemmOutputKeepsAStandaloneBiasAct) {
  // A GEMM output with two consumers cannot be absorbed into an epilogue,
  // so the plan keeps the standalone kAddBiasAct that fusion folds into
  // every GEMM of the served models. It must still match the forward
  // bitwise.
  const Tensor w = RandomTensor({8, 6}, 5);
  const Tensor bias = RandomTensor({6}, 6);
  auto forward = [&w, &bias](const Tensor& x) {
    const Tensor g = MatMul(x, w);
    return Add(AddBiasAct(g, bias, FusedAct::kRelu), g);
  };
  auto compiled = serve::InferencePlan::Compile(
      forward, RandomTensor({1, 8}, 7), RandomTensor({3, 8}, 8));
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  const serve::InferencePlan& plan = *compiled.value();
  EXPECT_EQ(plan.stats().fused_epilogues, 0);

  // Four rows: each op runs once per row.
  plan.set_profiling(true);
  const Tensor x = RandomTensor({4, 8}, 9);
  EXPECT_TRUE(BitwiseEqual(plan.Execute(x), forward(x)));
  std::vector<std::string> kinds;
  for (const serve::PlanOpTiming& t : plan.OpTimings()) {
    EXPECT_EQ(t.calls, 4) << t.name;
    kinds.push_back(t.name);
  }
  std::sort(kinds.begin(), kinds.end());
  EXPECT_EQ(kinds,
            (std::vector<std::string>{"add_bias_act", "binary", "gemm"}));
}

TEST_F(PlanTest, ManyThreadsShareOnePlan) {
  // The plan is immutable and runs lock-free; hammer one session from
  // many threads, single windows and whole batches whose rows share the
  // thread pool, and require every result bitwise-correct.
  // check_sanitize.sh runs this under TSan.
  auto planned = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(planned.ok());
  serve::InferenceSession* session = planned.value().get();
  ModuleOracle oracle(path_);

  const int kThreads = 8;
  const int kPerThread = 16;
  const std::vector<int64_t> kBatchSizes = {3, 16};
  std::vector<Tensor> windows;
  std::vector<Tensor> expected;
  for (int i = 0; i < kThreads * kPerThread; ++i) {
    windows.push_back(RandomTensor({24, 2}, 500 + i));
    expected.push_back(oracle.Predict(windows.back()));
  }
  std::vector<Tensor> batches;
  std::vector<Tensor> batch_expected;
  for (int t = 0; t < kThreads; ++t) {
    for (const int64_t b : kBatchSizes) {
      batches.push_back(RandomTensor({b, 24, 2}, 800 + batches.size()));
      batch_expected.push_back(oracle.Forward(batches.back()));
    }
  }

  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const int idx = t * kPerThread + i;
        auto got = session->Predict(windows[idx]);
        if (!got.ok() || !BitwiseEqual(got.value(), expected[idx])) {
          ++mismatches[t];
        }
      }
      for (size_t j = 0; j < kBatchSizes.size(); ++j) {
        const size_t idx = t * kBatchSizes.size() + j;
        auto got = session->PredictBatch(batches[idx]);
        if (!got.ok() || !BitwiseEqual(got.value(), batch_expected[idx])) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(mismatches[t], 0) << "thread " << t;
  }

  std::shared_ptr<const serve::InferencePlan> plan = session->PlanForBatch(1);
  ASSERT_NE(plan, nullptr);
  // +4: Compile ran the program three times for bitwise validation, and
  // Open's timed admission-control probe executed it once more.
  EXPECT_EQ(plan->executions(),
            kThreads * (kPerThread + static_cast<int>(kBatchSizes.size())) +
                4);
}

TEST_F(PlanTest, BatcherServesConcurrentRequestsFromOnePlan) {
  auto planned = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(planned.ok());
  ModuleOracle oracle(path_);

  const int kClients = 6;
  const int kPerClient = 4;
  std::vector<Tensor> windows;
  std::vector<Tensor> expected;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    windows.push_back(RandomTensor({24, 2}, 700 + i));
    expected.push_back(oracle.Predict(windows[i]));
  }

  serve::BatcherOptions opts;
  opts.max_batch_size = 4;
  opts.max_delay = std::chrono::microseconds(200);
  serve::Batcher batcher(planned.value().get(), opts);
  std::vector<int> mismatches(kClients, 0);
  std::vector<std::thread> clients;
  for (int cl = 0; cl < kClients; ++cl) {
    clients.emplace_back([&, cl] {
      for (int i = 0; i < kPerClient; ++i) {
        const int idx = cl * kPerClient + i;
        auto got = batcher.Submit(windows[idx]).get();
        if (!got.ok() || !BitwiseEqual(got.value(), expected[idx])) {
          ++mismatches[cl];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int cl = 0; cl < kClients; ++cl) {
    EXPECT_EQ(mismatches[cl], 0) << "client " << cl;
  }
}

TEST_F(PlanTest, ProfilingReportsPerOpTimings) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::InferenceSession* session = opened.value().get();

  // Off by default: no timings even after traffic.
  ASSERT_TRUE(session->Predict(RandomTensor({24, 2}, 60)).ok());
  std::shared_ptr<const serve::InferencePlan> plan = session->PlanForBatch(1);
  EXPECT_TRUE(plan->OpTimings().empty());

  session->SetPlanProfiling(true);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(session->Predict(RandomTensor({24, 2}, 61 + i)).ok());
  }
  const std::vector<serve::PlanOpTiming> timings = plan->OpTimings();
  ASSERT_FALSE(timings.empty());
  int64_t calls = 0;
  for (const serve::PlanOpTiming& t : timings) {
    EXPECT_NE(t.name, nullptr);
    EXPECT_GT(t.calls, 0);
    calls += t.calls;
  }
  // Three profiled executions of a fixed program.
  EXPECT_EQ(calls, 3 * plan->stats().num_ops);
}

// The fusion pass must actually fire on the default LiPFormer config:
// every Linear is bias+GEMM (epilogue fusion) and the de/normalization
// around the model is an elementwise run (chain fusion). If these drop
// to zero the pass has silently stopped matching and every fusion
// benchmark measures nothing.
TEST_F(PlanTest, FusionFiresOnDefaultConfig) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  const serve::PlanStats& stats = opened.value()->PlanForBatch(1)->stats();
  EXPECT_GE(stats.fused_epilogues, 1);
  EXPECT_GE(stats.fused_chains, 1);
  // A chain absorbs at least two elementwise ops by construction.
  EXPECT_GE(stats.fused_chain_ops, 2 * stats.fused_chains);
  // Each absorbed epilogue op and each chained op beyond the first
  // removes one whole read-modify-write pass. (>= because one GEMM can
  // absorb both a bias and a residual and count once.)
  EXPECT_GE(stats.passes_eliminated,
            stats.fused_epilogues +
                (stats.fused_chain_ops - stats.fused_chains));
  EXPECT_GE(stats.arena_saved_bytes, 0);
}

// ---------------------------------------------------------------------
// ArenaLayout (serve/arena.h): the liveness allocator behind plan
// arenas. The invariants: offsets are 16-float (64-byte) aligned, two
// simultaneously-live allocations never overlap, freed space is reused
// (same-size churn must not grow the slab), and adjacent holes coalesce
// so a large value fits where several small ones died.

// Tracks live [off, off+len) intervals and fails on any overlap — the
// one bug class an arena allocator must never have.
class ArenaChecker {
 public:
  explicit ArenaChecker(serve::ArenaLayout* arena) : arena_(arena) {}

  int64_t Alloc(int64_t numel) {
    const int64_t off = arena_->Alloc(numel);
    const int64_t len = serve::ArenaAlignUp(numel);
    EXPECT_EQ(off % serve::kArenaAlignFloats, 0) << "unaligned offset";
    for (size_t i = 0; i < live_.size(); ++i) {
      const bool disjoint = off + len <= live_[i].off ||
                            live_[i].off + live_[i].len <= off;
      EXPECT_TRUE(disjoint) << "overlap: [" << off << "," << off + len
                            << ") vs [" << live_[i].off << ","
                            << live_[i].off + live_[i].len << ")";
    }
    live_.push_back({off, len});
    return off;
  }

  void Free(int64_t off, int64_t numel) {
    arena_->Free(off, numel);
    for (size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].off == off) {
        live_.erase(live_.begin() + i);
        return;
      }
    }
    FAIL() << "freed an offset that was not live: " << off;
  }

 private:
  struct Interval {
    int64_t off;
    int64_t len;
  };
  serve::ArenaLayout* arena_;
  std::vector<Interval> live_;
};

TEST(ArenaLayoutTest, SameSizeChurnReusesTheHole) {
  serve::ArenaLayout arena;
  const int64_t a = arena.Alloc(100);
  const int64_t grown = arena.end();
  arena.Free(a, 100);
  // Ten generations of the same size must keep landing in a's hole.
  for (int i = 0; i < 10; ++i) {
    const int64_t b = arena.Alloc(100);
    EXPECT_EQ(b, a);
    arena.Free(b, 100);
  }
  EXPECT_EQ(arena.end(), grown);
}

TEST(ArenaLayoutTest, InterleavedLongAndShortLifetimes) {
  serve::ArenaLayout arena;
  ArenaChecker check(&arena);
  // A long-lived value pinned at the bottom while short-lived pairs of
  // different sizes churn above it — the pattern plan residuals create
  // (defined early, consumed late, dozens of temporaries in between).
  const int64_t pinned = check.Alloc(64);
  int64_t high_water = 0;
  for (int i = 0; i < 50; ++i) {
    const int64_t s = check.Alloc(16 + (i % 7) * 16);
    const int64_t t = check.Alloc(128);
    check.Free(s, 16 + (i % 7) * 16);
    const int64_t u = check.Alloc(48);
    check.Free(t, 128);
    check.Free(u, 48);
    high_water = std::max(high_water, arena.end());
  }
  check.Free(pinned, 64);
  // Reuse must keep the slab at its steady-state size, not 50 rounds of
  // growth: one pinned value + the widest in-flight trio.
  EXPECT_EQ(arena.end(), high_water);
  EXPECT_LE(arena.end(),
            serve::ArenaAlignUp(64) + serve::ArenaAlignUp(16 + 6 * 16) +
                serve::ArenaAlignUp(128) + serve::ArenaAlignUp(48));
}

TEST(ArenaLayoutTest, AdjacentHolesCoalesceForLargeValues) {
  serve::ArenaLayout arena;
  ArenaChecker check(&arena);
  // Four 32-float neighbors; free them out of order (middle pair last)
  // so coalescing has to merge on both sides.
  const int64_t a = check.Alloc(32);
  const int64_t b = check.Alloc(32);
  const int64_t c = check.Alloc(32);
  const int64_t d = check.Alloc(32);
  const int64_t grown = arena.end();
  check.Free(a, 32);
  check.Free(d, 32);
  check.Free(b, 32);
  check.Free(c, 32);
  // One value the size of all four must fit in the merged hole.
  const int64_t big = check.Alloc(128);
  EXPECT_EQ(big, a);
  EXPECT_EQ(arena.end(), grown);
}

TEST(ArenaLayoutTest, AdversarialChurnNeverOverlapsAndStaysAligned) {
  serve::ArenaLayout arena;
  ArenaChecker check(&arena);
  // Deterministic pseudo-random alloc/free storm with odd (unaligned)
  // sizes; ArenaChecker asserts alignment and non-overlap on every step.
  std::vector<std::pair<int64_t, int64_t>> live;  // {off, numel}
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (int step = 0; step < 400; ++step) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    const int64_t roll = static_cast<int64_t>((state >> 33) % 100);
    if (live.size() > 8 || (roll < 40 && !live.empty())) {
      const size_t victim = static_cast<size_t>((state >> 17) % live.size());
      check.Free(live[victim].first, live[victim].second);
      live.erase(live.begin() + victim);
    } else {
      const int64_t numel = 1 + static_cast<int64_t>((state >> 7) % 517);
      live.push_back({check.Alloc(numel), numel});
    }
  }
  for (size_t i = 0; i < live.size(); ++i) {
    check.Free(live[i].first, live[i].second);
  }
  // Everything freed: the next allocation must reuse offset 0.
  EXPECT_EQ(arena.Alloc(8), 0);
}

}  // namespace
}  // namespace lipformer
