// Tests for the multi-tenant model registry (serve/registry.h): named
// lookup and routing, manual + watcher-driven hot reload over atomic
// renames, the failed-validation-keeps-serving contract, and — under
// TSan via scripts/check_sanitize.sh — zero-downtime submits racing a
// storm of hot swaps.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "models/factory.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "tests/test_util.h"

namespace lipformer {
namespace {

using testing::BitwiseEqual;
using testing::RandomTensor;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

class ModelRegistryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dims_.input_len = 24;
    dims_.pred_len = 6;
    dims_.channels = 2;
    path_a_ = TempPath("registry_a.ckpt");
    path_b_ = TempPath("registry_b.ckpt");
    path_live_ = TempPath("registry_live.ckpt");
    ASSERT_TRUE(SaveBundle(path_a_, dims_, /*seed=*/11));
    ASSERT_TRUE(SaveBundle(path_b_, dims_, /*seed=*/21));
  }

  // Saves a small LiPFormer bundle with weights derived from `seed`, so
  // distinct seeds give bitwise-distinguishable models. Bundle writes go
  // through WriteCheckpoint's atomic temp+rename, i.e. every SaveBundle
  // onto an existing path is an atomic publish.
  bool SaveBundle(const std::string& path, const ForecasterDims& dims,
                  uint64_t seed) {
    ModelOptions options;
    options.hidden_dim = 8;
    options.num_heads = 2;
    options.patch_len = 8;
    options.seed = seed;
    std::unique_ptr<Forecaster> model = CreateModel("lipformer", dims, options);
    Rng rng(12);
    StandardScaler scaler;
    scaler.Fit(Tensor::Randn({64, dims.channels}, rng));
    return serve::SaveModelBundle(path, "lipformer", options, *model, scaler)
        .ok();
  }

  // The serial prediction a direct session of `path` gives for `window`
  // — the bitwise reference for everything the registry returns.
  Tensor DirectPrediction(const std::string& path, const Tensor& window) {
    auto session = serve::InferenceSession::Open(path);
    EXPECT_TRUE(session.ok()) << session.status().ToString();
    auto prediction = session.value()->Predict(window);
    EXPECT_TRUE(prediction.ok()) << prediction.status().ToString();
    return prediction.value();
  }

  ForecasterDims dims_;
  std::string path_a_;
  std::string path_b_;
  std::string path_live_;
};

TEST_F(ModelRegistryTest, LoadFindAndRoutedSubmit) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load("a", path_a_).ok());
  ASSERT_TRUE(registry.Load("b", path_b_).ok());
  EXPECT_EQ(registry.size(), 2u);
  EXPECT_NE(registry.Find("a"), nullptr);
  EXPECT_NE(registry.Find("b"), nullptr);
  EXPECT_EQ(registry.Find("missing"), nullptr);

  const Tensor window = RandomTensor({24, 2}, 31);
  auto answer_a = registry.Submit("a", window).get();
  auto answer_b = registry.Submit("b", window).get();
  ASSERT_TRUE(answer_a.ok()) << answer_a.status().ToString();
  ASSERT_TRUE(answer_b.ok()) << answer_b.status().ToString();
  // Each tenant answers with its own weights, bitwise equal to a direct
  // serial session of its bundle.
  EXPECT_TRUE(BitwiseEqual(answer_a.value(), DirectPrediction(path_a_, window)));
  EXPECT_TRUE(BitwiseEqual(answer_b.value(), DirectPrediction(path_b_, window)));
  EXPECT_FALSE(BitwiseEqual(answer_a.value(), answer_b.value()));

  auto missing = registry.Submit("missing", window).get();
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

TEST_F(ModelRegistryTest, RejectsReservedCharactersInNames) {
  serve::ModelRegistry registry;
  EXPECT_FALSE(registry.Load("", path_a_).ok());
  EXPECT_FALSE(registry.Load("a|b", path_a_).ok());
  EXPECT_FALSE(registry.Load("a,b", path_a_).ok());
  EXPECT_FALSE(registry.Load("a=b", path_a_).ok());
  EXPECT_FALSE(registry.Load("a b", path_a_).ok());
}

TEST_F(ModelRegistryTest, ManualReloadSwapsToNewBundle) {
  ASSERT_TRUE(SaveBundle(path_live_, dims_, /*seed=*/11));
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", path_live_).ok());

  const Tensor window = RandomTensor({24, 2}, 32);
  const Tensor before = DirectPrediction(path_a_, window);  // same seed 11
  auto answer = registry.Submit("m", window).get();
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(BitwiseEqual(answer.value(), before));

  // Atomic publish of different weights at the same path, then reload.
  ASSERT_TRUE(SaveBundle(path_live_, dims_, /*seed=*/21));
  ASSERT_TRUE(registry.Reload("m").ok());

  answer = registry.Submit("m", window).get();
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(BitwiseEqual(answer.value(), DirectPrediction(path_b_, window)));

  ASSERT_EQ(registry.Models().size(), 1u);
  EXPECT_EQ(registry.Models()[0].reloads, 1);
  EXPECT_EQ(registry.Models()[0].reload_failures, 0);
}

TEST_F(ModelRegistryTest, FailedReloadKeepsOldModelServing) {
  ASSERT_TRUE(SaveBundle(path_live_, dims_, /*seed=*/11));
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", path_live_).ok());
  const Tensor window = RandomTensor({24, 2}, 33);
  const Tensor before = registry.Submit("m", window).get().value();

  // Corrupt publish: not a checkpoint at all.
  const char garbage[] = "garbage, not a checkpoint";
  ASSERT_TRUE(AtomicWriteFile(path_live_, garbage, sizeof(garbage)).ok());

  Status reloaded = registry.Reload("m");
  EXPECT_FALSE(reloaded.ok());

  // The previous generation still serves, bitwise unchanged.
  auto answer = registry.Submit("m", window).get();
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(BitwiseEqual(answer.value(), before));

  ASSERT_EQ(registry.Models().size(), 1u);
  EXPECT_EQ(registry.Models()[0].reloads, 0);
  EXPECT_EQ(registry.Models()[0].reload_failures, 1);
  EXPECT_FALSE(registry.Models()[0].last_error.empty());
}

TEST_F(ModelRegistryTest, ReloadRejectsTensorShapeChange) {
  ASSERT_TRUE(SaveBundle(path_live_, dims_, /*seed=*/11));
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load("m", path_live_).ok());
  const Tensor window = RandomTensor({24, 2}, 34);
  const Tensor before = registry.Submit("m", window).get().value();

  // A valid bundle with a different window shape: reload must refuse
  // (the slot's shape is part of the serving contract) and keep serving.
  ForecasterDims other = dims_;
  other.input_len = 16;
  ASSERT_TRUE(SaveBundle(path_live_, other, /*seed=*/21));
  Status reloaded = registry.Reload("m");
  ASSERT_FALSE(reloaded.ok());
  EXPECT_NE(reloaded.message().find("shape"), std::string::npos);

  auto answer = registry.Submit("m", window).get();
  ASSERT_TRUE(answer.ok());
  EXPECT_TRUE(BitwiseEqual(answer.value(), before));
  EXPECT_EQ(registry.Models()[0].reload_failures, 1);
}

TEST_F(ModelRegistryTest, WatcherPicksUpAtomicRenamePublish) {
  ASSERT_TRUE(SaveBundle(path_live_, dims_, /*seed=*/11));
  serve::RegistryOptions options;
  options.reload_poll = std::chrono::milliseconds(5);
  serve::ModelRegistry registry(options);
  ASSERT_TRUE(registry.Load("m", path_live_).ok());

  const Tensor window = RandomTensor({24, 2}, 35);
  const Tensor old_expected = DirectPrediction(path_a_, window);
  const Tensor new_expected = DirectPrediction(path_b_, window);

  ASSERT_TRUE(SaveBundle(path_live_, dims_, /*seed=*/21));

  // The watcher must swap within its poll cadence; while it does, every
  // answer is one generation or the other — never anything else.
  bool saw_new = false;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (!saw_new) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "watcher never picked up the publish";
    auto answer = registry.Submit("m", window).get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    if (BitwiseEqual(answer.value(), new_expected)) {
      saw_new = true;
    } else {
      ASSERT_TRUE(BitwiseEqual(answer.value(), old_expected));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(registry.Models()[0].reloads, 1);
}

TEST_F(ModelRegistryTest, WatcherAttemptsBadPublishOnlyOnce) {
  ASSERT_TRUE(SaveBundle(path_live_, dims_, /*seed=*/11));
  serve::RegistryOptions options;
  options.reload_poll = std::chrono::milliseconds(2);
  serve::ModelRegistry registry(options);
  ASSERT_TRUE(registry.Load("m", path_live_).ok());

  const char garbage[] = "garbage";
  ASSERT_TRUE(AtomicWriteFile(path_live_, garbage, sizeof(garbage)).ok());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (registry.Models()[0].reload_failures == 0) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  // Many more polls pass; the same bad file must not be re-attempted
  // every poll (its signature is remembered).
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(registry.Models()[0].reload_failures, 1);

  // A FRESH publish (new inode/mtime) is attempted again — and a good
  // one swaps in.
  ASSERT_TRUE(SaveBundle(path_live_, dims_, /*seed=*/21));
  const Tensor window = RandomTensor({24, 2}, 36);
  const Tensor new_expected = DirectPrediction(path_b_, window);
  while (true) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    auto answer = registry.Submit("m", window).get();
    ASSERT_TRUE(answer.ok());
    if (BitwiseEqual(answer.value(), new_expected)) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

// The zero-downtime contract under TSan: concurrent submitters race a
// storm of hot swaps (good and bad publishes); no request may fail and
// every answer must be bitwise one of the two generations.
TEST_F(ModelRegistryTest, SubmitsNeverFailAcrossReloadStorm) {
  ASSERT_TRUE(SaveBundle(path_live_, dims_, /*seed=*/11));
  serve::RegistryOptions options;
  options.reload_poll = std::chrono::milliseconds(1);
  serve::ModelRegistry registry(options);
  ASSERT_TRUE(registry.Load("m", path_live_).ok());

  const Tensor window = RandomTensor({24, 2}, 37);
  const Tensor expected_a = DirectPrediction(path_a_, window);
  const Tensor expected_b = DirectPrediction(path_b_, window);

  std::atomic<bool> stop{false};
  std::atomic<int64_t> answered{0};
  std::vector<std::thread> clients;
  std::vector<std::string> failures(4);
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto answer =
            registry
                .Submit("m", window, std::chrono::microseconds::zero(),
                        serve::SubmitMode::kBlock)
                .get();
        if (!answer.ok()) {
          failures[c] = answer.status().ToString();
          return;
        }
        if (!BitwiseEqual(answer.value(), expected_a) &&
            !BitwiseEqual(answer.value(), expected_b)) {
          failures[c] = "torn prediction";
          return;
        }
        answered.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Alternate good publishes with corrupt ones while clients hammer.
  const char garbage[] = "garbage";
  for (int swap = 0; swap < 6; ++swap) {
    if (swap % 2 == 0) {
      ASSERT_TRUE(
          SaveBundle(path_live_, dims_, swap % 4 == 0 ? 21 : 11));
    } else {
      ASSERT_TRUE(AtomicWriteFile(path_live_, garbage, sizeof(garbage)).ok());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true);
  for (std::thread& client : clients) client.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  EXPECT_GT(answered.load(), 0);
  EXPECT_GE(registry.Models()[0].reloads, 1);
}

TEST_F(ModelRegistryTest, ShutdownDrainsAndRejectsLateSubmits) {
  serve::ModelRegistry registry;
  ASSERT_TRUE(registry.Load("a", path_a_).ok());
  const Tensor window = RandomTensor({24, 2}, 38);
  std::future<Result<Tensor>> in_flight = registry.Submit("a", window);
  registry.Shutdown();
  auto answer = in_flight.get();
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();  // drained

  auto late = registry.Submit("a", window).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  // Stats stay readable after shutdown (the CLI prints a final summary).
  EXPECT_EQ(registry.Models().size(), 1u);
}

}  // namespace
}  // namespace lipformer
