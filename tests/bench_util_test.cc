#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "bench_util/experiment.h"
#include "bench_util/profiler.h"
#include "bench_util/table_printer.h"
#include "data/synthetic.h"
#include "models/dlinear.h"
#include "models/factory.h"

namespace lipformer {
namespace {

TEST(TablePrinterTest, TextAndCsvForms) {
  TablePrinter table({"a", "bb"});
  table.AddRow({"1", "2"});
  table.AddRow({"333", "4"});
  const std::string text = table.ToText();
  EXPECT_NE(text.find("| a   | bb |"), std::string::npos);
  EXPECT_NE(text.find("| 333 | 4  |"), std::string::npos);
  EXPECT_EQ(table.ToCsv(), "a,bb\n1,2\n333,4\n");
}

TEST(TablePrinterTest, WriteCsvRoundTrip) {
  TablePrinter table({"x"});
  table.AddRow({"42"});
  const std::string path = ::testing::TempDir() + "/table.csv";
  ASSERT_TRUE(table.WriteCsv(path).ok());
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "x");
  std::getline(in, line);
  EXPECT_EQ(line, "42");
}

TEST(TablePrinterTest, FmtFloatPrecision) {
  EXPECT_EQ(FmtFloat(3.14159, 3), "3.142");
  EXPECT_EQ(FmtFloat(2.0, 1), "2.0");
}

TEST(FormatTest, CountSuffixes) {
  EXPECT_EQ(FormatCount(512), "512.00");
  EXPECT_EQ(FormatCount(1500), "1.50K");
  EXPECT_EQ(FormatCount(2.5e6), "2.50M");
  EXPECT_EQ(FormatCount(3.2e9), "3.20G");
  EXPECT_EQ(FormatCount(1.42e12), "1.42T");
}

TEST(FormatTest, Seconds) {
  EXPECT_EQ(FormatSeconds(2.5), "2.50s");
  EXPECT_EQ(FormatSeconds(0.0123), "12.3ms");
  EXPECT_EQ(FormatSeconds(45e-6), "45.0us");
}

TEST(ProfilerTest, CountsParamsMacsAndTime) {
  SeasonalConfig gen;
  gen.steps = 500;
  gen.channels = 2;
  TimeSeries series = GenerateSeasonal(gen);
  WindowDataset::Options options;
  options.input_len = 48;
  options.pred_len = 12;
  WindowDataset data(series, options);
  ForecasterDims dims{48, 12, 2};
  DLinear model(dims);
  ModelProfile profile = ProfileModel(&model, data, /*batch_size=*/4);
  // DLinear: two Linear(48 -> 12) = 2 * (48*12 + 12).
  EXPECT_EQ(profile.parameters, 2 * (48 * 12 + 12));
  // MACs: decomposition matmul (B*48*48) + 2 heads (B*48*12), B = b*c = 8.
  EXPECT_EQ(profile.macs, 8 * 48 * 48 + 2 * 8 * 48 * 12);
  EXPECT_GT(profile.seconds_per_inference, 0.0);
  // Profiling must not leave MAC counting on.
  EXPECT_FALSE(MacCountingEnabled());

  // Attention models: each attention charges Sq*Sk*(dk+dv) per head and
  // sample (scores plus the probability-weighted sum), on top of its
  // four projections.
  ModelOptions opts;
  opts.patch_len = 12;
  opts.hidden_dim = 16;
  opts.num_heads = 4;
  opts.num_layers = 1;
  opts.dropout = 0.0f;
  {
    std::unique_ptr<Forecaster> lipf = CreateModel("lipformer", dims, opts);
    // B = b*c = 8 channel sequences; n = 4 patches of pl = 12, hd = 16,
    // nt = 1 target patch.
    const int64_t bc = 8, n = 4, pl = 12, hd = 16, nt = 1;
    const int64_t cross = 4 * pl * n * n + pl * pl * (n + n) + n * pl * hd;
    const int64_t inter = 4 * n * hd * hd + n * n * (hd + hd);
    const int64_t heads = hd * n * nt + nt * hd * pl;
    EXPECT_EQ(ProfileModel(lipf.get(), data, 4).macs,
              bc * (cross + inter + heads));
  }
  {
    std::unique_ptr<Forecaster> tf = CreateModel("transformer", dims, opts);
    // b = 4 windows of T = 48 tokens, d = 16, one layer with a 4d FFN,
    // a head d -> pred_len * channels.
    const int64_t b = 4, t = 48, c = 2, d = 16, out = 12 * 2;
    const int64_t layer =
        4 * t * d * d + t * t * (d + d) + t * d * 4 * d + t * 4 * d * d;
    EXPECT_EQ(ProfileModel(tf.get(), data, 4).macs,
              b * (t * c * d + layer + d * out));
  }
}

TEST(BenchEnvTest, DefaultsAndFullPreset) {
  BenchEnv quick = ParseBenchArgs(1, nullptr);
  EXPECT_FALSE(quick.full);
  EXPECT_EQ(quick.input_len, 96);

  char prog[] = "bench";
  char full[] = "--full";
  char* argv[] = {prog, full};
  BenchEnv env = ParseBenchArgs(2, argv);
  EXPECT_TRUE(env.full);
  EXPECT_EQ(env.input_len, 336);
  EXPECT_EQ(env.horizons.back(), 720);
}

TEST(BenchEnvTest, ScaleAndEpochsOverrides) {
  char prog[] = "bench";
  char scale[] = "--scale=0.07";
  char epochs[] = "--epochs=9";
  char* argv[] = {prog, scale, epochs};
  BenchEnv env = ParseBenchArgs(3, argv);
  EXPECT_NEAR(env.data_scale, 0.07, 1e-9);
  EXPECT_EQ(env.epochs, 9);
}

TEST(BenchEnvTest, ResultsPathCreatesDirectory) {
  BenchEnv env;
  env.results_dir = ::testing::TempDir() + "/bench_results";
  const std::string path = ResultsPath(env, "foo");
  EXPECT_EQ(path, env.results_dir + "/foo.csv");
  std::ofstream probe(path);
  EXPECT_TRUE(static_cast<bool>(probe));  // directory exists and writable
}

}  // namespace
}  // namespace lipformer
