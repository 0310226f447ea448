#include <fcntl.h>
#include <pthread.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <future>
#include <iterator>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "common/interrupt.h"
#include "data/synthetic.h"
#include "nn/linear.h"
#include "serve/batcher.h"
#include "serve/checkpoint.h"
#include "serve/quantize.h"
#include "serve/session.h"
#include "tests/test_util.h"
#include "train/metrics.h"
#include "train/trainer.h"

namespace lipformer {
namespace {

using serve::LatencyRecorder;
using serve::SortedPercentile;
using testing::BitwiseEqual;
using testing::RandomTensor;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// TempDir() contents survive across test-binary runs; tests exercising
// the quantizer's don't-overwrite guard need their outputs absent.
std::string FreshTempPath(const std::string& name) {
  const std::string path = TempPath(name);
  std::remove(path.c_str());
  return path;
}

// Minimal module with one named parameter of a chosen shape, for
// exercising the per-tensor name/shape verification in LoadParameters.
struct OneParamModule : Module {
  OneParamModule(const std::string& name, Shape shape) {
    param = RegisterParameter(name, Variable(Tensor::Zeros(shape)));
  }
  Variable param;
};

// ---- Checkpoint v2 container ----

TEST(CheckpointV2Test, WriteReadRoundTripIsBitwise) {
  serve::Checkpoint ckpt;
  ckpt.metadata["model"] = "lipformer";
  ckpt.metadata["note"] = "";
  ckpt.tensors.push_back({"a.weight", RandomTensor({3, 4}, 1)});
  ckpt.tensors.push_back({"a.bias", RandomTensor({4}, 2)});
  const std::string path = TempPath("roundtrip.ckpt");
  ASSERT_TRUE(serve::WriteCheckpoint(path, ckpt).ok());

  auto loaded = serve::ReadCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().Meta("model", ""), "lipformer");
  EXPECT_EQ(loaded.value().Meta("note", "x"), "");
  EXPECT_EQ(loaded.value().Meta("absent", "def"), "def");
  ASSERT_EQ(loaded.value().tensors.size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(loaded.value().tensors[i].name, ckpt.tensors[i].name);
    EXPECT_EQ(loaded.value().tensors[i].data.shape(),
              ckpt.tensors[i].data.shape());
    EXPECT_TRUE(BitwiseEqual(loaded.value().tensors[i].data,
                             ckpt.tensors[i].data));
  }
}

TEST(CheckpointV2Test, RejectsLegacyV1WithMigrationAdvice) {
  // A legacy v1 file: u64 count, then u64 numel + raw floats per param.
  const std::string path = TempPath("legacy.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const uint64_t count = 1, numel = 2;
    const float data[2] = {1.0f, 2.0f};
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    out.write(reinterpret_cast<const char*>(&numel), sizeof(numel));
    out.write(reinterpret_cast<const char*>(data), sizeof(data));
  }
  auto loaded = serve::ReadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("not a v2 checkpoint"),
            std::string::npos);
  EXPECT_NE(loaded.status().message().find("checkpoint_convert"),
            std::string::npos);
}

TEST(CheckpointV2Test, RejectsShortHeader) {
  const std::string path = TempPath("short.ckpt");
  {
    std::ofstream out(path, std::ios::binary);
    out.write("LPF", 3);  // shorter than the 8-byte magic
  }
  EXPECT_FALSE(serve::ReadCheckpoint(path).ok());
}

TEST(CheckpointV2Test, RejectsTruncatedTensorData) {
  serve::Checkpoint ckpt;
  ckpt.tensors.push_back({"w", RandomTensor({8, 8}, 3)});
  const std::string path = TempPath("truncated.ckpt");
  ASSERT_TRUE(serve::WriteCheckpoint(path, ckpt).ok());
  // Chop off the last 16 bytes of tensor data.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 16));
  out.close();

  auto loaded = serve::ReadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("truncated"), std::string::npos);
}

TEST(CheckpointV2Test, RejectsTrailingBytes) {
  serve::Checkpoint ckpt;
  ckpt.tensors.push_back({"w", RandomTensor({2, 2}, 4)});
  const std::string path = TempPath("trailing.ckpt");
  ASSERT_TRUE(serve::WriteCheckpoint(path, ckpt).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("junk", 4);
  }
  auto loaded = serve::ReadCheckpoint(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("trailing bytes"),
            std::string::npos);
}

// ---- Module save/load on top of v2 ----

TEST(ModuleCheckpointTest, RoundTripIsBitwise) {
  Rng rng(5);
  Mlp a({3, 4, 2}, rng);
  Mlp b({3, 4, 2}, rng);  // different init
  const std::string path = TempPath("mlp_v2.ckpt");
  ASSERT_TRUE(a.SaveParameters(path).ok());
  ASSERT_TRUE(b.LoadParameters(path).ok());
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(pa[i].value(), pb[i].value()));
  }
}

TEST(ModuleCheckpointTest, RejectsWrongShapeWithEqualFlatSize) {
  // The exact bug the v2 format exists to catch: [2, 6] and [3, 4] have
  // the same 12 floats, so the legacy loader accepted the transplant and
  // produced garbage. v2 must name the offending parameter.
  OneParamModule saved("weight", {2, 6});
  OneParamModule loaded_into("weight", {3, 4});
  const std::string path = TempPath("transposed.ckpt");
  ASSERT_TRUE(saved.SaveParameters(path).ok());
  Status st = loaded_into.LoadParameters(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("shape mismatch"), std::string::npos);
  EXPECT_NE(st.message().find("'weight'"), std::string::npos);
  EXPECT_NE(st.message().find("[2, 6]"), std::string::npos)
      << st.message();
}

TEST(ModuleCheckpointTest, RejectsWrongParameterName) {
  OneParamModule saved("weight", {2, 2});
  OneParamModule loaded_into("kernel", {2, 2});
  const std::string path = TempPath("renamed.ckpt");
  ASSERT_TRUE(saved.SaveParameters(path).ok());
  Status st = loaded_into.LoadParameters(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("no tensor named 'kernel'"),
            std::string::npos);
}

TEST(ModuleCheckpointTest, RejectsParameterCountMismatch) {
  Rng rng(6);
  Mlp saved({3, 4, 2}, rng);
  Linear loaded_into(3, 2, rng);
  const std::string path = TempPath("count.ckpt");
  ASSERT_TRUE(saved.SaveParameters(path).ok());
  Status st = loaded_into.LoadParameters(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("parameter count mismatch"),
            std::string::npos);
}

TEST(ModuleCheckpointTest, LoadRejectsLegacyV1File) {
  Rng rng(7);
  Linear lin(2, 2, rng);
  // v1 layout matching the module exactly — still rejected by the v2
  // loader (only checkpoint_convert may read it).
  const std::string path = TempPath("legacy_exact.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const uint64_t count = 2;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const Variable& v : lin.Parameters()) {
      const uint64_t numel = static_cast<uint64_t>(v.numel());
      out.write(reinterpret_cast<const char*>(&numel), sizeof(numel));
      out.write(reinterpret_cast<const char*>(v.value().data()),
                static_cast<std::streamsize>(numel * sizeof(float)));
    }
  }
  Status st = lin.LoadParameters(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checkpoint_convert"), std::string::npos);
}

TEST(ModuleCheckpointTest, LegacyLoaderRoundTripsAndChecksBounds) {
  Rng rng(8);
  Linear a(3, 2, rng);
  Linear b(3, 2, rng);
  const std::string path = TempPath("legacy_ok.bin");
  {
    std::ofstream out(path, std::ios::binary);
    const uint64_t count = 2;
    out.write(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const Variable& v : a.Parameters()) {
      const uint64_t numel = static_cast<uint64_t>(v.numel());
      out.write(reinterpret_cast<const char*>(&numel), sizeof(numel));
      out.write(reinterpret_cast<const char*>(v.value().data()),
                static_cast<std::streamsize>(numel * sizeof(float)));
    }
  }
  ASSERT_TRUE(b.LoadParametersLegacyV1(path).ok());
  const auto pa = a.Parameters();
  const auto pb = b.Parameters();
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(pa[i].value(), pb[i].value()));
  }

  // Trailing bytes are an error.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("x", 1);
  }
  Status st = b.LoadParametersLegacyV1(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("trailing bytes"), std::string::npos);

  // A file shorter than the 8-byte header is an error, not a crash.
  const std::string stub = TempPath("legacy_stub.bin");
  {
    std::ofstream out(stub, std::ios::binary);
    out.write("abc", 3);
  }
  st = b.LoadParametersLegacyV1(stub);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("8-byte header"), std::string::npos);
}

TEST(ModuleCheckpointTest, LegacyLoaderRejectsV2File) {
  // Running the migration tool on an already-converted file must say so,
  // not report the magic reinterpreted as a garbage parameter count.
  Rng rng(8);
  Linear a(3, 2, rng);
  const std::string path = TempPath("already_v2.ckpt");
  ASSERT_TRUE(a.SaveParameters(path).ok());
  Status st = a.LoadParametersLegacyV1(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("already a v2 checkpoint"), std::string::npos);
}

// ---- Serving bundle + InferenceSession ----

class SessionTest : public ::testing::Test {
 protected:
  // Small but real LiPFormer bundle: 24 -> 6 over 2 channels.
  void SetUp() override {
    dims_.input_len = 24;
    dims_.pred_len = 6;
    dims_.channels = 2;
    options_.hidden_dim = 8;
    options_.num_heads = 2;
    options_.patch_len = 8;
    options_.seed = 11;
    model_ = CreateModel("lipformer", dims_, options_);
    Rng rng(12);
    scaler_.Fit(Tensor::Randn({64, dims_.channels}, rng));
    path_ = TempPath("session_bundle.ckpt");
    ASSERT_TRUE(serve::SaveModelBundle(path_, "lipformer", options_, *model_,
                                       scaler_)
                    .ok());
  }

  // A bundle whose attention projections (hidden 16) clear the
  // quantizer's kQuantMinLinearDim shape floor; the shared fixture
  // model (hidden 8) has no eligible Linear at all. The patch head and
  // embedding stay fp32 even here, so sessions opened from this bundle
  // exercise the mixed int8/fp32 load path.
  std::string QuantizableBundlePath() {
    ModelOptions options = options_;
    options.hidden_dim = 16;
    std::unique_ptr<Forecaster> model =
        CreateModel("lipformer", dims_, options);
    const std::string path = TempPath("session_bundle_h16.ckpt");
    EXPECT_TRUE(serve::SaveModelBundle(path, "lipformer", options, *model,
                                       scaler_)
                    .ok());
    return path;
  }

  ForecasterDims dims_;
  ModelOptions options_;
  std::unique_ptr<Forecaster> model_;
  StandardScaler scaler_;
  std::string path_;
};

TEST_F(SessionTest, OpenPredictShapesAndConfig) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  serve::InferenceSession* session = opened.value().get();
  EXPECT_EQ(session->model_name(), "lipformer");
  EXPECT_EQ(session->input_len(), 24);
  EXPECT_EQ(session->pred_len(), 6);
  EXPECT_EQ(session->channels(), 2);

  auto pred = session->Predict(RandomTensor({24, 2}, 13));
  ASSERT_TRUE(pred.ok()) << pred.status().ToString();
  EXPECT_EQ(pred.value().shape(), (Shape{6, 2}));

  // Wrong shapes are rejected, not crashed on.
  EXPECT_FALSE(session->Predict(RandomTensor({23, 2}, 14)).ok());
  EXPECT_FALSE(session->PredictBatch(RandomTensor({24, 2}, 15)).ok());
}

TEST_F(SessionTest, BatchRowsBitwiseMatchSingles) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::InferenceSession* session = opened.value().get();

  const int64_t b = 5;
  Tensor batch = RandomTensor({b, 24, 2}, 16);
  auto batched = session->PredictBatch(batch);
  ASSERT_TRUE(batched.ok());
  for (int64_t i = 0; i < b; ++i) {
    Tensor window = Tensor::Empty({24, 2});
    std::memcpy(window.data(), batch.data() + i * 24 * 2,
                sizeof(float) * 24 * 2);
    auto single = session->Predict(window);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(0, std::memcmp(single.value().data(),
                             batched.value().data() + i * 6 * 2,
                             sizeof(float) * 6 * 2))
        << "row " << i << " of the batch diverged from its solo forward";
  }
}

TEST_F(SessionTest, MismatchedArchitectureNamesTheParameter) {
  // Same flat parameter layout categories, different hidden width: the
  // bundle metadata rebuilds hidden 8, the file below claims hidden 4.
  ModelOptions other = options_;
  other.hidden_dim = 4;
  std::unique_ptr<Forecaster> smaller =
      CreateModel("lipformer", dims_, other);
  const std::string wrong = TempPath("wrong_arch.ckpt");
  // Force the mismatch: bundle says hidden 8 but carries hidden-4 weights.
  serve::Checkpoint ckpt;
  {
    auto loaded = serve::ReadCheckpoint(path_);
    ASSERT_TRUE(loaded.ok());
    ckpt.metadata = loaded.value().metadata;
  }
  ASSERT_TRUE(smaller->SaveParameters(wrong).ok());
  auto weights = serve::ReadCheckpoint(wrong);
  ASSERT_TRUE(weights.ok());
  ckpt.tensors = weights.value().tensors;
  ASSERT_TRUE(serve::WriteCheckpoint(wrong, ckpt).ok());

  auto opened = serve::InferenceSession::Open(wrong);
  ASSERT_FALSE(opened.ok());
  // Either the count differs or a tensor's shape does; both must name the
  // problem precisely rather than load garbage.
  const std::string& msg = opened.status().message();
  EXPECT_TRUE(msg.find("mismatch") != std::string::npos) << msg;
}

TEST_F(SessionTest, RejectsBareParameterCheckpoint) {
  const std::string bare = TempPath("bare.ckpt");
  ASSERT_TRUE(model_->SaveParameters(bare).ok());
  auto opened = serve::InferenceSession::Open(bare);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("bundle"), std::string::npos);
}

TEST_F(SessionTest, UnscaledBundleServesInModelUnits) {
  const std::string unscaled = TempPath("unscaled.ckpt");
  ASSERT_TRUE(serve::SaveModelBundle(unscaled, "lipformer", options_,
                                     *model_, StandardScaler())
                  .ok());
  auto opened = serve::InferenceSession::Open(unscaled);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_TRUE(opened.value()->Predict(RandomTensor({24, 2}, 17)).ok());
}

// ---- Strict bundle metadata parsing ----

// Rewrites one metadata key of the fixture bundle and returns the new
// path.
std::string BundleWithMeta(const std::string& src, const std::string& key,
                           const std::string& value,
                           const std::string& name) {
  auto loaded = serve::ReadCheckpoint(src);
  EXPECT_TRUE(loaded.ok());
  serve::Checkpoint ckpt = std::move(loaded.value());
  ckpt.metadata[key] = value;
  const std::string path = TempPath(name);
  EXPECT_TRUE(serve::WriteCheckpoint(path, ckpt).ok());
  return path;
}

TEST_F(SessionTest, RejectsOverflowingIntegerMetadata) {
  // Pre-fix, strtoll silently clamped this to LLONG_MAX (errno was never
  // checked) and Open proceeded with a garbage dimension.
  const std::string path = BundleWithMeta(
      path_, "input_len", "99999999999999999999999999", "overflow.ckpt");
  auto opened = serve::InferenceSession::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("input_len"), std::string::npos);
}

TEST_F(SessionTest, RejectsTrailingJunkInIntegerMetadata) {
  const std::string path =
      BundleWithMeta(path_, "channels", "2abc", "junk_int.ckpt");
  auto opened = serve::InferenceSession::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("channels"), std::string::npos);
}

TEST_F(SessionTest, RejectsTrailingJunkInDropoutMetadata) {
  // Pre-fix, the bare strtof accepted "0.1garbage" (and even pure
  // garbage, yielding dropout 0.0) without complaint.
  const std::string path =
      BundleWithMeta(path_, "dropout", "0.1garbage", "junk_dropout.ckpt");
  auto opened = serve::InferenceSession::Open(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_EQ(opened.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(opened.status().message().find("dropout"), std::string::npos);
}

// ---- Int8 quantized bundles ----

TEST_F(SessionTest, QuantizeBundleGuardsItsInputsAndOutputs) {
  const std::string out = FreshTempPath("quant_guard.ckpt");

  // Not a bundle: a bare parameter checkpoint.
  const std::string bare = TempPath("quant_bare.ckpt");
  ASSERT_TRUE(model_->SaveParameters(bare).ok());
  Status st = serve::QuantizeBundleFile(bare, out, /*force=*/false);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bundle"), std::string::npos);

  // The fixture model (hidden 8) has no Linear above the eligibility
  // floor: refused outright instead of emitting an all-fp32 "int8"
  // bundle.
  st = serve::QuantizeBundleFile(path_, FreshTempPath("quant_small.ckpt"),
                                 /*force=*/false);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("large enough"), std::string::npos);

  // A bundle with eligible layers quantizes fine...
  const std::string qbundle = QuantizableBundlePath();
  ASSERT_TRUE(
      serve::QuantizeBundleFile(qbundle, out, /*force=*/false).ok());
  // ...but not twice onto the same output without --force...
  st = serve::QuantizeBundleFile(qbundle, out, /*force=*/false);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("force"), std::string::npos);
  ASSERT_TRUE(serve::QuantizeBundleFile(qbundle, out, /*force=*/true).ok());

  // ...and an already-quantized bundle is refused as input.
  st = serve::QuantizeBundleFile(out, FreshTempPath("quant_twice.ckpt"),
                                 /*force=*/false);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("already quantized"), std::string::npos);
}

TEST_F(SessionTest, QuantizedSessionServesCloseToFp32) {
  const std::string qbundle = QuantizableBundlePath();
  const std::string qpath = FreshTempPath("quant_session.ckpt");
  ASSERT_TRUE(
      serve::QuantizeBundleFile(qbundle, qpath, /*force=*/false).ok());

  auto fp32 = serve::InferenceSession::Open(qbundle);
  auto quant = serve::InferenceSession::Open(qpath);
  ASSERT_TRUE(fp32.ok()) << fp32.status().ToString();
  ASSERT_TRUE(quant.ok()) << quant.status().ToString();
  EXPECT_FALSE(fp32.value()->quantized());
  EXPECT_TRUE(quant.value()->quantized());

  Tensor window = RandomTensor({24, 2}, 700);
  auto pf = fp32.value()->Predict(window);
  auto pq = quant.value()->Predict(window);
  ASSERT_TRUE(pf.ok());
  ASSERT_TRUE(pq.ok());
  // Per-channel int8 weights + row-wise int8 activations: predictions
  // track fp32 closely but not bitwise. Bound the energy of the error
  // relative to the prediction itself.
  double err = 0, ref = 0;
  for (int64_t i = 0; i < pf.value().numel(); ++i) {
    const double d = pf.value().data()[i] - pq.value().data()[i];
    err += d * d;
    ref += pf.value().data()[i] * pf.value().data()[i];
  }
  EXPECT_LT(err, 0.02 * ref) << "quantized prediction drifted: err=" << err
                             << " ref=" << ref;
}

TEST_F(SessionTest, QuantizedBatchRowsBitwiseMatchSingles) {
  // Row-wise (not per-tensor) activation scales exist exactly so this
  // invariant survives quantization: each row's codes are independent of
  // what shares the batch.
  const std::string qpath = FreshTempPath("quant_bitwise.ckpt");
  ASSERT_TRUE(
      serve::QuantizeBundleFile(QuantizableBundlePath(), qpath,
                                /*force=*/false).ok());
  auto opened = serve::InferenceSession::Open(qpath);
  ASSERT_TRUE(opened.ok());
  serve::InferenceSession* session = opened.value().get();

  const int64_t b = 5;
  Tensor batch = RandomTensor({b, 24, 2}, 701);
  auto batched = session->PredictBatch(batch);
  ASSERT_TRUE(batched.ok());
  for (int64_t i = 0; i < b; ++i) {
    Tensor window = Tensor::Empty({24, 2});
    std::memcpy(window.data(), batch.data() + i * 24 * 2,
                sizeof(float) * 24 * 2);
    auto single = session->Predict(window);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(0, std::memcmp(single.value().data(),
                             batched.value().data() + i * 6 * 2,
                             sizeof(float) * 6 * 2))
        << "quantized row " << i << " diverged from its solo forward";
  }
}

// ---- A bundle is read once ----
// A hot reload opens the bundle right after a rename; a loader that read
// the path twice could take its config from one published file and its
// weights from the next. These tests publish through a FIFO that serves
// the bundle's bytes to one reader only.

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

// Runs load(fifo) against a FIFO that serves `bytes` to its first reader
// and then closes. A loader that opens the path again blocks in open();
// after 10 s the test fails and releases it: a non-blocking writer open
// and close hands the second open EOF.
template <typename Load>
auto LoadThroughOneShotFifo(const std::string& fifo, const std::string& bytes,
                            Load load) -> decltype(load(fifo)) {
  std::remove(fifo.c_str());
  EXPECT_EQ(mkfifo(fifo.c_str(), 0600), 0) << std::strerror(errno);
  std::thread writer([&] {
    // A reader that quits early must cost this write an EPIPE, not the
    // process a SIGPIPE.
    sigset_t pipe_signal;
    sigemptyset(&pipe_signal);
    sigaddset(&pipe_signal, SIGPIPE);
    pthread_sigmask(SIG_BLOCK, &pipe_signal, nullptr);
    // Wait, bounded, for the loader's open; ENXIO means no reader yet.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    int fd = -1;
    while ((fd = open(fifo.c_str(), O_WRONLY | O_NONBLOCK)) < 0 &&
           errno == ENXIO && std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (fd < 0) return;
    fcntl(fd, F_SETFL, 0);  // blocking writes from here on
    for (size_t done = 0; done < bytes.size();) {
      const ssize_t n = write(fd, bytes.data() + done, bytes.size() - done);
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    close(fd);
  });
  auto loading = std::async(std::launch::async, [&] { return load(fifo); });
  if (loading.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "the loader opened " << fifo << " a second time";
    const int fd = open(fifo.c_str(), O_WRONLY | O_NONBLOCK);
    if (fd >= 0) close(fd);
  }
  auto result = loading.get();
  writer.join();
  std::remove(fifo.c_str());
  return result;
}

TEST_F(SessionTest, LoadBundleModelReadsTheBundleOnce) {
  Result<serve::BundleModel> piped = LoadThroughOneShotFifo(
      TempPath("bundle_once.fifo"), FileBytes(path_),
      [](const std::string& p) { return serve::LoadBundleModel(p); });
  ASSERT_TRUE(piped.ok()) << piped.status().ToString();
  Result<serve::BundleModel> file = serve::LoadBundleModel(path_);
  ASSERT_TRUE(file.ok()) << file.status().ToString();
  const Tensor histories = RandomTensor({3, 24, 2}, 801);
  EXPECT_TRUE(BitwiseEqual(piped.value().Forward(histories),
                           file.value().Forward(histories)));
}

TEST_F(SessionTest, QuantizeBundleFileReadsTheBundleOnce) {
  const std::string fp32 = QuantizableBundlePath();
  const std::string from_fifo = FreshTempPath("quant_once_fifo.ckpt");
  const Status piped = LoadThroughOneShotFifo(
      TempPath("quant_once.fifo"), FileBytes(fp32),
      [&](const std::string& p) {
        return serve::QuantizeBundleFile(p, from_fifo, /*force=*/false);
      });
  ASSERT_TRUE(piped.ok()) << piped.ToString();
  const std::string from_file = FreshTempPath("quant_once_file.ckpt");
  ASSERT_TRUE(
      serve::QuantizeBundleFile(fp32, from_file, /*force=*/false).ok());
  Result<serve::BundleModel> a = serve::LoadBundleModel(from_fifo);
  Result<serve::BundleModel> b = serve::LoadBundleModel(from_file);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_TRUE(a.value().quantized);
  const Tensor histories = RandomTensor({3, 24, 2}, 802);
  EXPECT_TRUE(BitwiseEqual(a.value().Forward(histories),
                           b.value().Forward(histories)));
}

TEST(QuantizedMseTest, TrainedModelStaysWithinTwoPercentOfFp32) {
  // The acceptance bound from ISSUE 6: on a *trained* model the int8
  // path's test MSE must sit within 2% relative of fp32. Quick-train a
  // small LiPFormer on synthetic seasonal data (integration_test.cc
  // pattern), bundle, quantize, evaluate both sessions on the same
  // windows.
  SeasonalConfig gen;
  gen.steps = 700;
  gen.channels = 2;
  gen.seed = 41;
  gen.noise_std = 0.2;
  TimeSeries series = GenerateSeasonal(gen);
  WindowDataset::Options wopts;
  wopts.input_len = 48;
  wopts.pred_len = 12;
  WindowDataset data(series, wopts);

  ForecasterDims dims;
  dims.input_len = 48;
  dims.pred_len = 12;
  dims.channels = data.channels();
  ModelOptions mopts;
  mopts.patch_len = 12;
  mopts.hidden_dim = 16;
  mopts.num_heads = 2;
  mopts.seed = 42;
  std::unique_ptr<Forecaster> model = CreateModel("lipformer", dims, mopts);

  TrainConfig train;
  train.epochs = 3;
  train.patience = 3;
  train.batch_size = 32;
  train.max_batches_per_epoch = 20;
  train.max_eval_batches = 8;
  (void)TrainAndEvaluate(model.get(), data, train);

  const std::string fp32_path = TempPath("mse_fp32.ckpt");
  const std::string q_path = FreshTempPath("mse_int8.ckpt");
  ASSERT_TRUE(serve::SaveModelBundle(fp32_path, "lipformer", mopts, *model,
                                     StandardScaler())
                  .ok());
  ASSERT_TRUE(
      serve::QuantizeBundleFile(fp32_path, q_path, /*force=*/false).ok());
  auto fp32 = serve::InferenceSession::Open(fp32_path);
  auto quant = serve::InferenceSession::Open(q_path);
  ASSERT_TRUE(fp32.ok()) << fp32.status().ToString();
  ASSERT_TRUE(quant.ok()) << quant.status().ToString();

  const int64_t n = std::min<int64_t>(data.NumWindows(Split::kTest), 64);
  ASSERT_GT(n, 0);
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < n; ++i) ids.push_back(i);
  Batch batch = data.MakeBatch(Split::kTest, ids);

  auto pf = fp32.value()->PredictBatch(batch.x);
  auto pq = quant.value()->PredictBatch(batch.x);
  ASSERT_TRUE(pf.ok()) << pf.status().ToString();
  ASSERT_TRUE(pq.ok()) << pq.status().ToString();
  MetricAccumulator acc_f, acc_q;
  acc_f.Add(pf.value(), batch.y);
  acc_q.Add(pq.value(), batch.y);
  const float mse_f = acc_f.mse();
  const float mse_q = acc_q.mse();
  EXPECT_LE(std::abs(mse_q - mse_f), 0.02f * mse_f)
      << "fp32 mse=" << mse_f << " int8 mse=" << mse_q;
}

// ---- Dynamic micro-batcher ----

TEST(LatencyRecorderTest, ExactPercentilesOnKnownSamples) {
  // 0..1000 in scrambled order (7919 is coprime to 1001), so percentile p
  // sits exactly on sample 10 * p.
  LatencyRecorder recorder(2048);
  for (int i = 0; i <= 1000; ++i) recorder.Record((i * 7919) % 1001);
  std::vector<double> sorted = recorder.samples();
  ASSERT_EQ(sorted.size(), 1001u);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_NEAR(SortedPercentile(sorted, 50.0), 500.0, 1e-9);
  EXPECT_NEAR(SortedPercentile(sorted, 99.0), 990.0, 1e-9);
  EXPECT_NEAR(SortedPercentile(sorted, 99.9), 999.0, 1e-9);
  EXPECT_DOUBLE_EQ(SortedPercentile(sorted, 100.0), 1000.0);
  // Between two samples the rank interpolates linearly.
  EXPECT_DOUBLE_EQ(SortedPercentile({1.0, 2.0}, 50.0), 1.5);
  EXPECT_TRUE(std::isnan(SortedPercentile({}, 50.0)));
}

TEST(LatencyRecorderTest, WrappedRingKeepsOnlyTheNewestSamples) {
  LatencyRecorder recorder(4);
  for (int i = 1; i <= 10; ++i) recorder.Record(i);
  std::vector<double> kept = recorder.samples();
  std::sort(kept.begin(), kept.end());
  EXPECT_EQ(kept, (std::vector<double>{7, 8, 9, 10}));
}

// Pins the batcher's worker inside one stalled forward: arms an injected
// `stall_ms` delay on the next forward, submits a window and waits until
// the worker has popped it, so whatever is submitted next stays queued
// until the stall ends. The caller disarms the fault.
std::future<Result<Tensor>> StallWorker(serve::Batcher* batcher,
                                        int stall_ms) {
  fault::Arm("slow_infer_ms=" + std::to_string(stall_ms) +
             ",slow_infer_count=1");
  std::future<Result<Tensor>> held =
      batcher->Submit(RandomTensor({24, 2}, 199));
  while (batcher->Stats().queue_depth > 0) std::this_thread::yield();
  return held;
}

TEST_F(SessionTest, BatcherConcurrentResultsBitwiseMatchSerial) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::InferenceSession* session = opened.value().get();

  const int kClients = 8;
  const int kPerClient = 4;
  std::vector<Tensor> windows;
  std::vector<Tensor> expected;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    windows.push_back(RandomTensor({24, 2}, 100 + i));
    auto serial = session->Predict(windows.back());
    ASSERT_TRUE(serial.ok());
    expected.push_back(serial.value());
  }

  serve::BatcherOptions opts;
  opts.max_batch_size = 4;
  serve::Batcher batcher(session, opts);
  std::vector<std::thread> clients;
  std::vector<int> mismatches(kClients, 0);
  for (int cl = 0; cl < kClients; ++cl) {
    clients.emplace_back([&, cl] {
      for (int i = 0; i < kPerClient; ++i) {
        const int idx = cl * kPerClient + i;
        auto result = batcher.Submit(windows[idx]).get();
        if (!result.ok() ||
            !BitwiseEqual(result.value(), expected[idx])) {
          ++mismatches[cl];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int cl = 0; cl < kClients; ++cl) {
    EXPECT_EQ(mismatches[cl], 0) << "client " << cl;
  }

  const serve::BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.submitted, kClients * kPerClient);
  EXPECT_EQ(stats.completed, kClients * kPerClient);
  EXPECT_EQ(stats.rejected_full, 0);
  EXPECT_EQ(stats.expired, 0);
  int64_t in_batches = 0;
  for (size_t s = 0; s < stats.batch_size_histogram.size(); ++s) {
    in_batches += stats.batch_size_histogram[s] * (s + 1);
  }
  EXPECT_EQ(in_batches, kClients * kPerClient);
  EXPECT_GT(stats.p99_latency_seconds, 0.0);
  EXPECT_GE(stats.p99_latency_seconds, stats.p50_latency_seconds);
  EXPECT_GE(stats.p999_latency_seconds, stats.p99_latency_seconds);
}

TEST_F(SessionTest, BatcherBackpressureAndDrainOnShutdown) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());

  // The worker is pinned inside a stalled forward (injected 500 ms) on a
  // first request while the queue fills, so the bounce is deterministic:
  // a free worker would take each queued request as soon as it arrived.
  serve::BatcherOptions opts;
  opts.max_batch_size = 64;
  opts.queue_capacity = 2;
  serve::Batcher batcher(opened.value().get(), opts);
  auto f0 = StallWorker(&batcher, 500);

  auto f1 = batcher.Submit(RandomTensor({24, 2}, 200));
  auto f2 = batcher.Submit(RandomTensor({24, 2}, 201));
  auto f3 = batcher.Submit(RandomTensor({24, 2}, 202));

  // Third is bounced immediately with a typed error.
  ASSERT_EQ(f3.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto r3 = f3.get();
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.status().code(), StatusCode::kUnavailable);

  // Shutdown executes the accepted requests instead of dropping them.
  batcher.Shutdown();
  fault::Disarm();
  ASSERT_TRUE(f0.get().ok());
  auto r1 = f1.get();
  auto r2 = f2.get();
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  EXPECT_EQ(r1.value().shape(), (Shape{6, 2}));

  // After shutdown new submissions are rejected.
  auto f4 = batcher.Submit(RandomTensor({24, 2}, 203));
  auto r4 = f4.get();
  ASSERT_FALSE(r4.ok());
  EXPECT_EQ(r4.status().code(), StatusCode::kUnavailable);

  const serve::BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.submitted, 3);
  EXPECT_EQ(stats.completed, 3);
  EXPECT_EQ(stats.rejected_full, 1);
}

// The worker never waits for stragglers, and never runs a backlog one row
// at a time either: what queued while it was busy is its next batch.
TEST_F(SessionTest, WorkerTakesTheBacklogWithoutWaiting) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::InferenceSession* session = opened.value().get();

  const int kBacklog = 5;
  std::vector<Tensor> windows;
  std::vector<Tensor> expected;
  for (int i = 0; i < kBacklog; ++i) {
    windows.push_back(RandomTensor({24, 2}, 1200 + i));
    auto serial = session->Predict(windows.back());
    ASSERT_TRUE(serial.ok());
    expected.push_back(serial.value());
  }

  serve::Batcher batcher(session, {});
  auto held = StallWorker(&batcher, 500);
  std::vector<std::future<Result<Tensor>>> backlog;
  for (const Tensor& window : windows) {
    backlog.push_back(batcher.Submit(window));
  }
  ASSERT_TRUE(held.get().ok());
  for (int i = 0; i < kBacklog; ++i) {
    Result<Tensor> answer = backlog[static_cast<size_t>(i)].get();
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    EXPECT_TRUE(BitwiseEqual(answer.value(), expected[static_cast<size_t>(i)]))
        << "row " << i;
  }
  fault::Disarm();

  const serve::BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.batches, 2);
  EXPECT_EQ(stats.batch_size_histogram[0], 1);  // the held request
  EXPECT_EQ(stats.batch_size_histogram[kBacklog - 1], 1);
}

TEST_F(SessionTest, BatcherExpiresMissedDeadlines) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());

  serve::BatcherOptions opts;
  opts.max_batch_size = 64;
  serve::Batcher batcher(opened.value().get(), opts);

  // The worker is stalled on another request, so this one waits in the
  // queue while its deadline passes.
  auto held = StallWorker(&batcher, 500);
  auto fast = batcher.Submit(RandomTensor({24, 2}, 300),
                             /*deadline=*/std::chrono::microseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  batcher.Shutdown();  // drains: deadline is long past by now
  fault::Disarm();
  ASSERT_TRUE(held.get().ok());
  auto result = fast.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(batcher.Stats().expired, 1);
}

TEST_F(SessionTest, ExpiredRequestsDoNotPinQueueCapacity) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());

  // Capacity 2 and a worker stalled on another request: the queue fills
  // with two requests whose deadlines pass while they wait.
  serve::BatcherOptions opts;
  opts.max_batch_size = 64;
  opts.queue_capacity = 2;
  serve::Batcher batcher(opened.value().get(), opts);

  auto held = StallWorker(&batcher, 500);
  auto stale1 = batcher.Submit(RandomTensor({24, 2}, 600),
                               /*deadline=*/std::chrono::microseconds(1));
  auto stale2 = batcher.Submit(RandomTensor({24, 2}, 601),
                               /*deadline=*/std::chrono::microseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  // Pre-fix, this bounced with Unavailable: the full check counted the
  // two dead entries. The fix sweeps them on the full path, so the fresh
  // request is accepted and the stale futures resolve immediately.
  auto fresh = batcher.Submit(RandomTensor({24, 2}, 602));
  auto r1 = stale1.get();
  auto r2 = stale2.get();
  EXPECT_EQ(r1.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(r2.status().code(), StatusCode::kDeadlineExceeded);

  batcher.Shutdown();
  fault::Disarm();
  ASSERT_TRUE(held.get().ok());
  auto rf = fresh.get();
  ASSERT_TRUE(rf.ok()) << rf.status().ToString();
  EXPECT_EQ(rf.value().shape(), (Shape{6, 2}));

  const serve::BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.rejected_full, 0);
  EXPECT_EQ(stats.expired, 2);
  EXPECT_EQ(stats.completed, 2);  // the held request and the fresh one
}

TEST_F(SessionTest, BatcherRejectsWrongShapeImmediately) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::Batcher batcher(opened.value().get(), {});
  auto f = batcher.Submit(RandomTensor({7, 2}, 400));
  ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  auto r = f.get();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

// A NaN or inf in a client's window is bad input, not a model failure:
// Submit rejects it up front, so no client can open the model's breaker
// for everyone else by sending bad numbers.
TEST_F(SessionTest, NonFiniteHistoryIsRejectedWithoutTrippingTheBreaker) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::BatcherOptions options;
  options.max_batch_size = 1;  // one request per batch: failures count 1:1
  serve::Batcher batcher(opened.value().get(), options);

  const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                       std::numeric_limits<float>::infinity(),
                       -std::numeric_limits<float>::infinity()};
  for (int64_t i = 0; i < options.breaker.failure_threshold; ++i) {
    Tensor window = RandomTensor({24, 2}, 1400 + i);
    window.data()[i % window.numel()] = bad[i % 3];
    auto f = batcher.Submit(window);
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    Result<Tensor> r = f.get();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument)
        << r.status().ToString();
  }

  Result<Tensor> clean = batcher.Submit(RandomTensor({24, 2}, 1450)).get();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  const serve::BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.breaker.trips, 0);
  EXPECT_EQ(stats.breaker.state, serve::BreakerState::kClosed);
  EXPECT_EQ(stats.nonfinite_answers, 0);
  batcher.Shutdown();
}

// The serve loop's graceful shutdown (cli.cc CmdServe): SIGTERM flips the
// interrupt flag that stops the accept loop, and everything already
// submitted still drains through the batcher and resolves.
TEST_F(SessionTest, SigtermStopsAcceptingButDrainsInFlightRequests) {
  ClearInterrupt();
  InstallInterruptHandlers();
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::Batcher batcher(opened.value().get(), {});

  std::vector<std::future<Result<Tensor>>> pending;
  for (int i = 0; i < 8; ++i) {
    pending.push_back(batcher.Submit(RandomTensor({24, 2}, 500 + i)));
  }
  // One signal only: the handlers are one-shot (SA_RESETHAND), a second
  // SIGTERM would kill the test binary by design.
  ASSERT_EQ(raise(SIGTERM), 0);
  EXPECT_TRUE(InterruptRequested());

  for (auto& f : pending) {
    Result<Tensor> r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value().shape(), (Shape{6, 2}));
  }
  batcher.Shutdown();
  EXPECT_EQ(batcher.Stats().completed, 8);
  ClearInterrupt();
}

// Submit racing Shutdown: whatever the interleaving, every future must
// resolve — either accepted-then-drained (ok) or rejected (Unavailable)
// — and the stats must account for exactly the accepted ones.
TEST_F(SessionTest, SubmitRacingShutdownResolvesEveryFuture) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::Batcher batcher(opened.value().get(), {});

  constexpr int kClients = 4;
  constexpr int kPerClient = 16;
  std::vector<std::future<Result<Tensor>>> futures(kClients * kPerClient);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        futures[c * kPerClient + i] =
            batcher.Submit(RandomTensor({24, 2}, 600 + c * kPerClient + i));
      }
    });
  }
  batcher.Shutdown();  // races the submitters
  for (std::thread& client : clients) client.join();

  int64_t drained = 0;
  int64_t rejected = 0;
  for (auto& future : futures) {
    Result<Tensor> result = future.get();
    if (result.ok()) {
      ++drained;
    } else {
      ASSERT_EQ(result.status().code(), StatusCode::kUnavailable);
      ++rejected;
    }
  }
  EXPECT_EQ(drained + rejected, kClients * kPerClient);
  const serve::BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.submitted, drained);   // accepted == drained: no loss
  EXPECT_EQ(stats.completed, drained);
}

// Stats visibility ordering: a caller whose future resolved must already
// see itself counted in completed (stats are committed before promises
// are fulfilled).
TEST_F(SessionTest, ResolvedCallerSeesItselfInCompletedStats) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::Batcher batcher(opened.value().get(), {});

  constexpr int kClients = 3;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      int64_t my_resolved = 0;
      for (int i = 0; i < 8; ++i) {
        auto result =
            batcher.Submit(RandomTensor({24, 2}, 700 + c * 8 + i)).get();
        if (!result.ok()) {
          failures[c] = result.status().ToString();
          return;
        }
        ++my_resolved;
        // At least my own completions must be visible; other clients
        // only add to the count.
        if (batcher.Stats().completed < my_resolved) {
          failures[c] = "completed count ran behind a resolved future";
          return;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
}

// The CLI flow-control path (SubmitMode::kBlock): producers outrunning a
// tiny queue block for slots instead of harvesting Unavailable.
TEST_F(SessionTest, BlockingSubmitAppliesFlowControl) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::BatcherOptions options;
  options.queue_capacity = 2;  // far smaller than the request count
  options.max_batch_size = 2;
  serve::Batcher batcher(opened.value().get(), options);

  constexpr int kClients = 4;
  constexpr int kPerClient = 8;
  std::vector<std::thread> clients;
  std::vector<std::string> failures(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        auto result =
            batcher
                .Submit(RandomTensor({24, 2}, 800 + c * kPerClient + i),
                        std::chrono::microseconds::zero(),
                        serve::SubmitMode::kBlock)
                .get();
        if (!result.ok()) {
          failures[c] = result.status().ToString();
          return;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (const std::string& failure : failures) {
    EXPECT_TRUE(failure.empty()) << failure;
  }
  const serve::BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.rejected_full, 0);  // nothing bounced
  EXPECT_EQ(stats.completed, kClients * kPerClient);
}

// A blocked submitter must not deadlock on shutdown: it wakes and gets
// the Unavailable rejection while the queued request still drains.
TEST_F(SessionTest, BlockingSubmitUnblocksOnShutdown) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::BatcherOptions options;
  options.queue_capacity = 1;
  options.max_batch_size = 64;
  serve::Batcher batcher(opened.value().get(), options);

  // The worker is still stalled on another request when Shutdown arrives
  // (the queued request executes after the stall).
  std::future<Result<Tensor>> held = StallWorker(&batcher, 500);
  std::future<Result<Tensor>> queued =
      batcher.Submit(RandomTensor({24, 2}, 900));  // fills the queue
  std::promise<void> blocked_started;
  std::future<Result<Tensor>> blocked_result;
  std::thread blocked([&] {
    blocked_started.set_value();
    blocked_result = batcher.Submit(RandomTensor({24, 2}, 901),
                                    std::chrono::microseconds::zero(),
                                    serve::SubmitMode::kBlock);
  });
  blocked_started.get_future().get();
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  batcher.Shutdown();
  blocked.join();
  fault::Disarm();

  ASSERT_TRUE(held.get().ok());
  Result<Tensor> drained = queued.get();
  EXPECT_TRUE(drained.ok()) << drained.status().ToString();
  Result<Tensor> rejected = blocked_result.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
}

// ---- Overload & degradation (DESIGN.md "Overload & degradation") ----

// Admission control: with a seeded cost estimate of 10s/batch, any
// deadline under ~20s is unmeetable, so the shed decision is
// deterministic — no load generation needed.
TEST_F(SessionTest, AdmissionShedsWithOverloadedAndRetryAfter) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::BatcherOptions options;
  options.max_batch_size = 4;
  options.cost_hint_seconds = 10.0;
  serve::Batcher batcher(opened.value().get(), options);

  auto shed = batcher.Submit(RandomTensor({24, 2}, 1000),
                             /*deadline=*/std::chrono::microseconds(100000));
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Result<Tensor> rejected = shed.get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kOverloaded);
  EXPECT_NE(rejected.status().message().find("retry after"),
            std::string::npos)
      << rejected.status().ToString();

  // No deadline and no queue-delay cap: the same backlog estimate is not
  // a reason to shed.
  auto accepted = batcher.Submit(RandomTensor({24, 2}, 1001));
  batcher.Shutdown();
  Result<Tensor> answered = accepted.get();
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();

  const serve::BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.shed_overload, 1);
  EXPECT_EQ(stats.completed, 1);
  EXPECT_EQ(stats.expired, 0);
}

// The queue-delay cap sheds deadline-less requests too once the
// estimated backlog drain exceeds it.
TEST_F(SessionTest, QueueDelayCapShedsBacklogOnlyRequests) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::BatcherOptions options;
  options.max_batch_size = 4;
  options.cost_hint_seconds = 10.0;
  options.max_queue_delay = std::chrono::microseconds(1000);
  serve::Batcher batcher(opened.value().get(), options);

  // The held request executes (stalled), so it is not backlog: the queue
  // is empty again and the first queued request sees zero batches ahead
  // — admitted.
  auto held = StallWorker(&batcher, 500);
  auto first = batcher.Submit(RandomTensor({24, 2}, 1010));
  // Second: one live request ahead means one 10s batch to drain, far
  // over the 1ms cap.
  auto second = batcher.Submit(RandomTensor({24, 2}, 1011));
  ASSERT_EQ(second.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Result<Tensor> capped = second.get();
  ASSERT_FALSE(capped.ok());
  EXPECT_EQ(capped.status().code(), StatusCode::kOverloaded);

  batcher.Shutdown();
  fault::Disarm();
  ASSERT_TRUE(held.get().ok());
  Result<Tensor> drained = first.get();
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
  EXPECT_EQ(batcher.Stats().shed_overload, 1);
}

// A kBlock submit waiting for queue space must give up at its own
// deadline with the typed error instead of blocking until the worker,
// stalled here for 2 s, frees a slot.
TEST_F(SessionTest, BlockingSubmitRespectsDeadlineWhileWaitingForSpace) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::BatcherOptions options;
  options.queue_capacity = 1;
  options.max_batch_size = 64;
  serve::Batcher batcher(opened.value().get(), options);

  auto held = StallWorker(&batcher, 2000);
  auto queued = batcher.Submit(RandomTensor({24, 2}, 1020));  // fills queue
  const auto start = std::chrono::steady_clock::now();
  Result<Tensor> blocked =
      batcher
          .Submit(RandomTensor({24, 2}, 1021),
                  /*deadline=*/std::chrono::microseconds(30000),
                  serve::SubmitMode::kBlock)
          .get();
  const auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), StatusCode::kDeadlineExceeded);
  // Half the 2 s stall a slot would take, far over the 30 ms deadline so
  // scheduler noise cannot flake it.
  EXPECT_LT(
      std::chrono::duration_cast<std::chrono::milliseconds>(waited).count(),
      1000);
  EXPECT_EQ(batcher.Stats().expired, 1);

  batcher.Shutdown();
  fault::Disarm();
  ASSERT_TRUE(held.get().ok());
  Result<Tensor> drained = queued.get();
  ASSERT_TRUE(drained.ok()) << drained.status().ToString();
}

// A non-finite forecast must surface as a typed Internal error, never as
// silent garbage delivered to the caller.
TEST_F(SessionTest, NonFiniteForecastBecomesTypedInternalError) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::Batcher batcher(opened.value().get(), {});

  fault::Arm("poison_output_at=1");  // poison the next batched forward
  Result<Tensor> poisoned =
      batcher.Submit(RandomTensor({24, 2}, 1100)).get();
  fault::Disarm();
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal);
  EXPECT_NE(poisoned.status().message().find("non-finite"),
            std::string::npos)
      << poisoned.status().ToString();
  EXPECT_EQ(batcher.Stats().nonfinite_answers, 1);

  // The fault window closed; the model is healthy again.
  Result<Tensor> clean = batcher.Submit(RandomTensor({24, 2}, 1101)).get();
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  batcher.Shutdown();
}

// Full breaker cycle: consecutive model failures trip it (instant typed
// rejections), the cooldown admits a half-open probe, and the probe's
// success closes it again.
TEST_F(SessionTest, BreakerTripsAndRecoversViaHalfOpenProbes) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::BatcherOptions options;
  options.max_batch_size = 1;  // one request per batch: failures count 1:1
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown = std::chrono::milliseconds(50);
  options.breaker.half_open_successes = 1;
  serve::Batcher batcher(opened.value().get(), options);

  fault::Arm("poison_output_at=1,poison_output_count=2");
  for (int i = 0; i < 2; ++i) {
    Result<Tensor> bad = batcher.Submit(RandomTensor({24, 2}, 1200 + i)).get();
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
  }
  fault::Disarm();

  // Tripped: the next submit bounces instantly, naming the breaker.
  auto bounced = batcher.Submit(RandomTensor({24, 2}, 1210));
  ASSERT_EQ(bounced.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  Result<Tensor> open_rejection = bounced.get();
  ASSERT_FALSE(open_rejection.ok());
  EXPECT_EQ(open_rejection.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(open_rejection.status().message().find("circuit breaker"),
            std::string::npos)
      << open_rejection.status().ToString();

  std::this_thread::sleep_for(std::chrono::milliseconds(70));  // > cooldown
  // First submit after the cooldown rides as the half-open probe; its
  // success closes the breaker for everyone after it.
  Result<Tensor> probe = batcher.Submit(RandomTensor({24, 2}, 1211)).get();
  ASSERT_TRUE(probe.ok()) << probe.status().ToString();
  Result<Tensor> after = batcher.Submit(RandomTensor({24, 2}, 1212)).get();
  ASSERT_TRUE(after.ok()) << after.status().ToString();

  const serve::BatcherStats stats = batcher.Stats();
  EXPECT_EQ(stats.breaker.trips, 1);
  EXPECT_GE(stats.breaker.probes, 1);
  EXPECT_GE(stats.breaker.rejected, 1);
  EXPECT_EQ(stats.breaker.state, serve::BreakerState::kClosed);
  EXPECT_EQ(stats.nonfinite_answers, 2);
  batcher.Shutdown();
}

// TSan coverage for the breaker's state transitions under concurrent
// submitters while faults arm and clear underneath: every future must
// resolve with a typed outcome (answer, Internal, or breaker/queue
// Unavailable) — never hang, crash, or race.
TEST_F(SessionTest, BreakerChurnUnderConcurrentSubmitsResolvesEverything) {
  auto opened = serve::InferenceSession::Open(path_);
  ASSERT_TRUE(opened.ok());
  serve::BatcherOptions options;
  options.max_batch_size = 2;
  options.breaker.failure_threshold = 2;
  options.breaker.cooldown = std::chrono::milliseconds(1);
  options.breaker.half_open_successes = 1;
  serve::Batcher batcher(opened.value().get(), options);

  constexpr int kClients = 8;
  constexpr int kPerClient = 16;
  std::atomic<int> resolved{0};
  std::atomic<int> untyped{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        Result<Tensor> result =
            batcher.Submit(RandomTensor({24, 2}, 1300 + c * kPerClient + i))
                .get();
        ++resolved;
        if (result.ok()) continue;
        const StatusCode code = result.status().code();
        if (code != StatusCode::kInternal &&
            code != StatusCode::kUnavailable) {
          ++untyped;
        }
      }
    });
  }
  // Concurrent stats reader: Stats() must never race the commit path.
  std::atomic<bool> stop_stats{false};
  std::thread stats_reader([&] {
    while (!stop_stats.load()) {
      (void)batcher.Stats();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  for (int round = 0; round < 6; ++round) {
    fault::Arm("poison_output_at=1,poison_output_count=2");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    fault::Disarm();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (std::thread& client : clients) client.join();
  stop_stats.store(true);
  stats_reader.join();
  fault::Disarm();

  EXPECT_EQ(resolved.load(), kClients * kPerClient);
  EXPECT_EQ(untyped.load(), 0);
  batcher.Shutdown();
  // The breaker must be in a coherent terminal state, not wedged by a
  // lost probe.
  const serve::BatcherStats stats = batcher.Stats();
  EXPECT_GE(stats.breaker.trips, 0);
  EXPECT_EQ(stats.completed + stats.expired + stats.rejected_full +
                stats.shed_overload + stats.breaker.rejected,
            kClients * kPerClient);
}

}  // namespace
}  // namespace lipformer
