// Crash-safety tests: the atomic write layer, checkpoint truncation
// handling, training-state snapshots, exact (bitwise) resume, the
// non-finite step guard with rollback, and fault injection itself.
//
// Hard kills (_Exit) are exercised by scripts/check_crash_resume.sh (the
// `crash_resume` ctest) — in-process tests cover everything that does not
// require killing the test binary.

#include <unistd.h>

#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/atomic_file.h"
#include "common/fault_injection.h"
#include "common/interrupt.h"
#include "core/lipformer.h"
#include "data/synthetic.h"
#include "data/window_dataset.h"
#include "serve/checkpoint.h"
#include "train/snapshot.h"
#include "train/trainer.h"
#include "tests/test_util.h"

namespace lipformer {
namespace {

using testing::BitwiseEqual;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileOrDie(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

bool ParamsBitwiseEqual(Module& a, Module& b) {
  std::vector<Variable> pa = a.Parameters();
  std::vector<Variable> pb = b.Parameters();
  if (pa.size() != pb.size()) return false;
  for (size_t i = 0; i < pa.size(); ++i) {
    if (!BitwiseEqual(pa[i].value(), pb[i].value())) return false;
  }
  return true;
}

bool ParamsAllFinite(Module& m) {
  for (const Variable& p : m.Parameters()) {
    const float* d = p.value().data();
    for (int64_t i = 0; i < p.numel(); ++i) {
      if (!std::isfinite(d[i])) return false;
    }
  }
  return true;
}

// Small real workload shared by the resume tests: seasonal series, small
// LiPFormer with dropout ACTIVE so the per-module RNG streams matter.
WindowDataset SmallWindows() {
  SeasonalConfig config;
  config.steps = 800;
  config.channels = 3;
  config.seed = 9;
  config.noise_std = 0.2;
  TimeSeries series = GenerateSeasonal(config);
  WindowDataset::Options options;
  options.input_len = 96;
  options.pred_len = 24;
  return WindowDataset(series, options);
}

LiPFormer SmallModel() {
  LiPFormerConfig config;
  config.input_len = 96;
  config.pred_len = 24;
  config.channels = 3;
  config.patch_len = 24;
  config.hidden_dim = 16;
  config.dropout = 0.1f;
  config.seed = 3;
  return LiPFormer(config);
}

TrainConfig FastConfig() {
  TrainConfig config;
  config.epochs = 4;
  config.patience = 4;
  config.batch_size = 32;
  config.max_batches_per_epoch = 10;
  config.max_eval_batches = 5;
  config.seed = 21;
  return config;
}

// Every test starts and ends with fault injection disarmed and the
// interrupt flag clear; leaking either would poison unrelated tests.
class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::Disarm();
    ClearInterrupt();
  }
  void TearDown() override {
    fault::Disarm();
    ClearInterrupt();
  }
};

// ---- Atomic write layer ----

TEST_F(RobustnessTest, AtomicWritePublishesOnCommitOnly) {
  const std::string path = TempPath("atomic_commit.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "v1", 2).ok());
  EXPECT_EQ(ReadFileOrDie(path), "v1");

  {
    // Appended but never committed: the target must keep its old bytes
    // and the temp file must be unlinked on destruction.
    Result<AtomicFile> created = AtomicFile::Create(path);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    AtomicFile file = std::move(created.value());
    ASSERT_TRUE(file.Append("partial garbage", 15).ok());
  }
  EXPECT_EQ(ReadFileOrDie(path), "v1");

  ASSERT_TRUE(AtomicWriteFile(path, "v2!", 3).ok());
  EXPECT_EQ(ReadFileOrDie(path), "v2!");
}

TEST_F(RobustnessTest, InjectedWriteFailureLeavesTargetByteIdentical) {
  const std::string path = TempPath("atomic_torn.bin");
  ASSERT_TRUE(AtomicWriteFile(path, "precious", 8).ok());

  fault::Arm("fail_write_after_bytes=4");
  const char big[64] = "this write is doomed past byte four";
  const Status st = AtomicWriteFile(path, big, sizeof(big));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  fault::Disarm();

  EXPECT_EQ(ReadFileOrDie(path), "precious");
  // And the layer still works once the fault is gone.
  ASSERT_TRUE(AtomicWriteFile(path, big, sizeof(big)).ok());
}

TEST_F(RobustnessTest, CheckpointWriteFailureLeavesPreviousCheckpoint) {
  const std::string path = TempPath("ckpt_torn.ckpt");
  serve::Checkpoint ckpt;
  ckpt.metadata["k"] = "v";
  ckpt.tensors.push_back({"w", Tensor::Ones({4, 3})});
  ASSERT_TRUE(serve::WriteCheckpoint(path, ckpt).ok());
  const std::string before = ReadFileOrDie(path);

  fault::Arm("fail_write_after_bytes=10");
  EXPECT_FALSE(serve::WriteCheckpoint(path, ckpt).ok());
  fault::Disarm();

  EXPECT_EQ(ReadFileOrDie(path), before);
  EXPECT_TRUE(serve::ReadCheckpoint(path).ok());
}

// ---- Truncation sweep ----

// Every strict prefix of a valid v2 checkpoint must yield a typed error —
// never a crash, never a silent partial load.
TEST_F(RobustnessTest, CheckpointTruncationSweepAlwaysFailsCleanly) {
  const std::string path = TempPath("sweep_full.ckpt");
  serve::Checkpoint ckpt;
  ckpt.metadata["model"] = "test";
  ckpt.metadata["empty"] = "";
  ckpt.tensors.push_back({"a", Tensor::Ones({2, 3})});
  ckpt.tensors.push_back({"__opt__.m.a", Tensor::Full({2, 3}, 0.5f)});
  ASSERT_TRUE(serve::WriteCheckpoint(path, ckpt).ok());

  const std::string bytes = ReadFileOrDie(path);
  ASSERT_GT(bytes.size(), 0u);
  ASSERT_TRUE(serve::ReadCheckpoint(path).ok());

  const std::string trunc = TempPath("sweep_trunc.ckpt");
  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFileOrDie(trunc, bytes.substr(0, len));
    Result<serve::Checkpoint> loaded = serve::ReadCheckpoint(trunc);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes (of "
                              << bytes.size() << ") loaded successfully";
  }
}

// A 45-byte file holding one rank-1 tensor header and no data. The
// reader must reject each before it allocates: at dim 2^62 the byte size
// wraps to 0 in 64 bits, at 2^62 + 1 to 4, and 2^36 floats claim 256 GiB
// that the file does not hold. Each is read by path and through a pipe,
// which has no size to hold the byte length against.
TEST_F(RobustnessTest, CraftedTensorHeadersReturnInvalidArgument) {
  struct Header {
    int64_t dim;
    uint64_t byte_len;
  };
  const std::string path = TempPath("crafted.ckpt");
  for (const Header& h : {Header{int64_t{1} << 62, 0},
                          Header{(int64_t{1} << 62) + 1, 4},
                          Header{int64_t{1} << 36, uint64_t{1} << 38}}) {
    SCOPED_TRACE("dim " + std::to_string(h.dim));
    std::string bytes = "LPFCKPT2";
    auto put = [&bytes](auto v) {
      bytes.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(uint32_t{2});  // version
    put(uint32_t{0});  // metadata entries
    put(uint32_t{1});  // tensors
    put(uint32_t{1});  // name length
    bytes += 'w';
    put(uint32_t{1});  // rank
    put(h.dim);
    put(h.byte_len);
    ASSERT_EQ(bytes.size(), 45u);
    WriteFileOrDie(path, bytes);
    Result<serve::Checkpoint> loaded = serve::ReadCheckpoint(path);
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << loaded.status().ToString();

    int fds[2];
    ASSERT_EQ(pipe(fds), 0);
    // 45 bytes fit the pipe's buffer, so the write completes first.
    ASSERT_EQ(write(fds[1], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    close(fds[1]);
    Result<serve::Checkpoint> piped =
        serve::ReadCheckpoint("/dev/fd/" + std::to_string(fds[0]));
    close(fds[0]);
    ASSERT_FALSE(piped.ok());
    EXPECT_EQ(piped.status().code(), StatusCode::kInvalidArgument)
        << piped.status().ToString();
  }
}

// ---- Training-state snapshots ----

TEST_F(RobustnessTest, SnapshotSaveLoadRestoreRoundTrip) {
  WindowDataset data = SmallWindows();
  LiPFormer model = SmallModel();
  AdamW optimizer(model.Parameters(), 1e-3f);
  EarlyStopping stopper(3);
  stopper.Update(0.5f);
  Rng loader_rng(77);
  loader_rng.UniformInt(10);  // advance off the seed state

  TrainCursor cursor;
  cursor.epoch = 2;
  cursor.batch = 5;
  cursor.global_step = 25;
  cursor.epochs_run = 2;
  cursor.epoch_loss = 1.25;
  cursor.nonfinite_steps = 1;
  cursor.rollbacks = 1;
  cursor.lr = 0.5e-3f;
  cursor.lr_scale = 0.5f;

  std::vector<Tensor> best;
  for (const Variable& p : model.Parameters()) best.push_back(p.value().Clone());

  const TrainState state = CaptureTrainState(&model, best, optimizer, stopper,
                                             loader_rng, cursor);
  const std::string path = TempPath("train_state.snap");
  ASSERT_TRUE(SaveTrainState(path, state).ok());

  Result<TrainState> loaded = LoadTrainState(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().cursor.epoch, 2);
  EXPECT_EQ(loaded.value().cursor.batch, 5);
  EXPECT_EQ(loaded.value().cursor.global_step, 25);
  EXPECT_EQ(loaded.value().cursor.epoch_loss, 1.25);
  EXPECT_EQ(loaded.value().cursor.lr, 0.5e-3f);
  EXPECT_EQ(loaded.value().cursor.lr_scale, 0.5f);
  EXPECT_EQ(loaded.value().opt_step, optimizer.step_count());
  EXPECT_EQ(loaded.value().stopper_best, 0.5f);
  EXPECT_EQ(loaded.value().loader_rng, state.loader_rng);
  EXPECT_EQ(loaded.value().module_rngs.size(), state.module_rngs.size());

  // Restore into a DIFFERENTLY seeded twin: params and rng streams must
  // become bitwise identical to the captured model's.
  LiPFormerConfig other_config = SmallModel().config();
  other_config.seed = 12345;
  LiPFormer twin(other_config);
  ASSERT_FALSE(ParamsBitwiseEqual(model, twin));
  AdamW twin_opt(twin.Parameters(), 1e-3f);
  EarlyStopping twin_stopper(3);
  Rng twin_rng(1);
  TrainCursor twin_cursor;
  ASSERT_TRUE(RestoreTrainState(loaded.value(), &twin, &best, &twin_opt,
                                &twin_stopper, &twin_rng, &twin_cursor)
                  .ok());
  EXPECT_TRUE(ParamsBitwiseEqual(model, twin));
  EXPECT_EQ(twin_stopper.best_score(), 0.5f);
  EXPECT_EQ(twin_opt.step_count(), optimizer.step_count());
  EXPECT_EQ(twin_cursor.global_step, 25);
  // The loader stream continues exactly where the captured one stood.
  Rng captured_copy(0);
  captured_copy.ImportState(state.loader_rng.data());
  EXPECT_EQ(captured_copy.UniformInt(1000000), twin_rng.UniformInt(1000000));
  // Module streams too.
  auto model_rngs = model.NamedRngs();
  auto twin_rngs = twin.NamedRngs();
  ASSERT_EQ(model_rngs.size(), twin_rngs.size());
  ASSERT_GT(model_rngs.size(), 0u) << "dropout streams should be registered";
  for (size_t i = 0; i < model_rngs.size(); ++i) {
    EXPECT_EQ(model_rngs[i].second->UniformInt(1000000),
              twin_rngs[i].second->UniformInt(1000000))
        << model_rngs[i].first;
  }
}

TEST_F(RobustnessTest, ResumeRejectsPlainCheckpointsAndCorruptSnapshots) {
  WindowDataset data = SmallWindows();
  LiPFormer model = SmallModel();

  // A plain parameter checkpoint is not a training snapshot.
  const std::string plain = TempPath("plain_params.ckpt");
  ASSERT_TRUE(model.SaveParameters(plain).ok());
  TrainConfig config = FastConfig();
  config.resume_path = plain;
  TrainResult result = TrainAndEvaluate(&model, data, config);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.epochs_run, 0);
  EXPECT_NE(result.status.message().find("training snapshot"),
            std::string::npos)
      << result.status.message();

  // A truncated snapshot fails with a typed error, not a crash.
  const std::string snap = TempPath("to_corrupt.snap");
  {
    LiPFormer fresh = SmallModel();
    TrainConfig one = FastConfig();
    one.epochs = 1;
    one.snapshot_path = snap;
    TrainAndEvaluate(&fresh, data, one);
  }
  const std::string bytes = ReadFileOrDie(snap);
  WriteFileOrDie(snap, bytes.substr(0, bytes.size() / 2));
  LiPFormer victim = SmallModel();
  TrainConfig corrupt = FastConfig();
  corrupt.resume_path = snap;
  result = TrainAndEvaluate(&victim, data, corrupt);
  EXPECT_FALSE(result.status.ok());
  EXPECT_EQ(result.epochs_run, 0);
}

// ---- Exact resume ----

TEST_F(RobustnessTest, ResumeFromEpochBoundaryIsBitwiseIdentical) {
  WindowDataset data = SmallWindows();

  LiPFormer reference = SmallModel();
  const TrainResult ref = TrainAndEvaluate(&reference, data, FastConfig());

  // Same run, stopped cleanly after 2 of 4 epochs...
  const std::string snap = TempPath("boundary.snap");
  LiPFormer half = SmallModel();
  TrainConfig first = FastConfig();
  first.epochs = 2;
  first.snapshot_path = snap;
  TrainAndEvaluate(&half, data, first);

  // ...then finished from the snapshot in a fresh process-equivalent
  // (fresh model object, fresh optimizer, fresh loader).
  LiPFormer resumed = SmallModel();
  TrainConfig second = FastConfig();
  second.resume_path = snap;
  const TrainResult res = TrainAndEvaluate(&resumed, data, second);

  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  EXPECT_TRUE(ParamsBitwiseEqual(reference, resumed))
      << "resumed weights diverged from the uninterrupted run";
  EXPECT_EQ(ref.best_val_loss, res.best_val_loss);
  EXPECT_EQ(ref.test.mse, res.test.mse);
  // epochs_run is cumulative across resume (2 restored + 2 new).
  EXPECT_EQ(ref.epochs_run, res.epochs_run);
}

TEST_F(RobustnessTest, ResumeFromMidEpochInterruptIsBitwiseIdentical) {
  WindowDataset data = SmallWindows();

  LiPFormer reference = SmallModel();
  const TrainResult ref = TrainAndEvaluate(&reference, data, FastConfig());

  // Interrupt mid-epoch (step 5 of 10-batch epochs) via the same flag the
  // SIGINT/SIGTERM handlers set.
  const std::string snap = TempPath("midepoch.snap");
  fault::Arm("interrupt_after_step=5");
  LiPFormer killed = SmallModel();
  TrainConfig first = FastConfig();
  first.snapshot_path = snap;
  const TrainResult stopped = TrainAndEvaluate(&killed, data, first);
  EXPECT_TRUE(stopped.interrupted);
  fault::Disarm();
  ClearInterrupt();

  LiPFormer resumed = SmallModel();
  TrainConfig second = FastConfig();
  second.resume_path = snap;
  const TrainResult res = TrainAndEvaluate(&resumed, data, second);

  ASSERT_TRUE(res.status.ok()) << res.status.ToString();
  EXPECT_FALSE(res.interrupted);
  EXPECT_TRUE(ParamsBitwiseEqual(reference, resumed))
      << "mid-epoch resume diverged from the uninterrupted run";
  EXPECT_EQ(ref.best_val_loss, res.best_val_loss);
  EXPECT_EQ(ref.test.mse, res.test.mse);
}

// ---- Non-finite guard ----

TEST_F(RobustnessTest, PoisonedStepIsSkippedAndCounted) {
  WindowDataset data = SmallWindows();
  fault::Arm("poison_grad_at_step=3");
  LiPFormer model = SmallModel();
  TrainConfig config = FastConfig();
  config.epochs = 2;
  const TrainResult result = TrainAndEvaluate(&model, data, config);
  fault::Disarm();

  EXPECT_EQ(result.nonfinite_steps, 1);
  EXPECT_EQ(result.rollbacks, 0);
  EXPECT_TRUE(result.status.ok());
  EXPECT_TRUE(ParamsAllFinite(model))
      << "a skipped NaN step must not reach the weights";
  EXPECT_TRUE(std::isfinite(result.test.mse));
}

TEST_F(RobustnessTest, RepeatedPoisonTriggersRollbackWithHalvedLr) {
  WindowDataset data = SmallWindows();
  // Steps 2..13 all poisoned: with patience 3 the guard must roll back to
  // the epoch start (several times, halving the lr each time) and still
  // finish training once the window passes.
  fault::Arm("poison_grad_at_step=2,poison_grad_steps=12");
  LiPFormer model = SmallModel();
  TrainConfig config = FastConfig();
  config.epochs = 2;
  config.nonfinite_patience = 3;
  const TrainResult result = TrainAndEvaluate(&model, data, config);
  fault::Disarm();

  EXPECT_TRUE(result.status.ok());
  EXPECT_GE(result.rollbacks, 1);
  EXPECT_GE(result.nonfinite_steps, 3);
  EXPECT_EQ(result.epochs_run, 2);
  EXPECT_TRUE(ParamsAllFinite(model));
  EXPECT_TRUE(std::isfinite(result.test.mse));
}

// ---- Snapshot writes under injected write failures ----

TEST_F(RobustnessTest, FailedSnapshotWritesOnlyWarnAndPreserveOldSnapshot) {
  WindowDataset data = SmallWindows();
  const std::string snap = TempPath("surviving.snap");
  {
    LiPFormer model = SmallModel();
    TrainConfig config = FastConfig();
    config.epochs = 1;
    config.snapshot_path = snap;
    ASSERT_TRUE(TrainAndEvaluate(&model, data, config).status.ok());
  }
  const std::string before = ReadFileOrDie(snap);

  fault::Arm("fail_write_after_bytes=256");
  LiPFormer model = SmallModel();
  TrainConfig config = FastConfig();
  config.epochs = 2;
  config.snapshot_path = snap;
  const TrainResult result = TrainAndEvaluate(&model, data, config);
  fault::Disarm();

  EXPECT_TRUE(result.status.ok())
      << "snapshot write failures must not fail training";
  EXPECT_EQ(result.epochs_run, 2);
  EXPECT_EQ(ReadFileOrDie(snap), before)
      << "a torn snapshot write corrupted the previous snapshot";
  EXPECT_TRUE(LoadTrainState(snap).ok());
}

// ---- Serving-path fault directive parsing ----

TEST_F(RobustnessTest, TryArmRejectsMalformedAndUnknownDirectives) {
  std::string error;
  EXPECT_FALSE(fault::TryArm("slow_infer_ms", &error));
  EXPECT_NE(error.find("key=value"), std::string::npos) << error;

  EXPECT_FALSE(fault::TryArm("slow_infer_ms=abc", &error));
  EXPECT_NE(error.find("non-negative integer"), std::string::npos) << error;

  EXPECT_FALSE(fault::TryArm("slow_infer_ms=-3", &error));
  EXPECT_FALSE(fault::TryArm("slow_infer_ms=5ms", &error));  // trailing junk

  EXPECT_FALSE(fault::TryArm("bogus_point=1", &error));
  EXPECT_NE(error.find("bogus_point"), std::string::npos) << error;
}

// A spec that mixes one valid directive with one bad directive must arm
// nothing at all — a half-armed fault plan would make chaos runs
// unreproducible.
TEST_F(RobustnessTest, TryArmIsAllOrNothing) {
  std::string error;
  EXPECT_FALSE(fault::TryArm("fail_open_at=1,bogus=2", &error));
  EXPECT_FALSE(fault::ShouldFailOpen());
}

TEST_F(RobustnessTest, ServingCallCountersAreOneBasedAndResetOnArm) {
  std::string error;
  ASSERT_TRUE(fault::TryArm("fail_open_at=2", &error)) << error;
  EXPECT_FALSE(fault::ShouldFailOpen());  // call 1
  EXPECT_TRUE(fault::ShouldFailOpen());   // call 2 (default count = 1)
  EXPECT_FALSE(fault::ShouldFailOpen());  // call 3: window closed

  // Re-arming resets the counter, so the window is "from now" — the
  // chaos harness relies on this to retarget faults mid-run.
  ASSERT_TRUE(fault::TryArm("fail_open_at=2,fail_open_count=2", &error))
      << error;
  EXPECT_FALSE(fault::ShouldFailOpen());  // call 1
  EXPECT_TRUE(fault::ShouldFailOpen());   // call 2
  EXPECT_TRUE(fault::ShouldFailOpen());   // call 3 (count = 2)
  EXPECT_FALSE(fault::ShouldFailOpen());  // call 4
}

TEST_F(RobustnessTest, SlowAndPoisonWindowsComposeOnInferCalls) {
  std::string error;
  ASSERT_TRUE(fault::TryArm(
      "slow_infer_ms=7,slow_infer_at=2,slow_infer_count=1,poison_output_at=3",
      &error))
      << error;
  const fault::InferFault first = fault::OnInferCall();
  EXPECT_EQ(first.delay_ms, 0);
  EXPECT_FALSE(first.poison_output);
  const fault::InferFault second = fault::OnInferCall();
  EXPECT_EQ(second.delay_ms, 7);
  EXPECT_FALSE(second.poison_output);
  const fault::InferFault third = fault::OnInferCall();
  EXPECT_EQ(third.delay_ms, 0);
  EXPECT_TRUE(third.poison_output);
  const fault::InferFault fourth = fault::OnInferCall();
  EXPECT_EQ(fourth.delay_ms, 0);
  EXPECT_FALSE(fourth.poison_output);
}

TEST_F(RobustnessTest, WatcherStallDirectiveArmsAndDisarms) {
  std::string error;
  ASSERT_TRUE(fault::TryArm("watcher_stall_ms=40", &error)) << error;
  EXPECT_EQ(fault::WatcherStallMs(), 40);
  fault::Disarm();
  EXPECT_EQ(fault::WatcherStallMs(), 0);
}

}  // namespace
}  // namespace lipformer
