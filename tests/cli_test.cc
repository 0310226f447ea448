#include "cli/cli.h"

#include <gtest/gtest.h>

#include "common/parse.h"
#include "common/thread_pool.h"
#include "data/csv.h"
#include "data/synthetic.h"

namespace lipformer {
namespace cli {
namespace {

CliArgs ParseVec(std::vector<std::string> argv_strings) {
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  return Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(CliParseTest, CommandAndOptions) {
  CliArgs args = ParseVec({"prog", "train", "--model=dlinear",
                           "--epochs=7", "--covariates"});
  EXPECT_EQ(args.command, "train");
  EXPECT_EQ(args.Get("model", ""), "dlinear");
  EXPECT_EQ(args.GetInt("epochs", 0), 7);
  EXPECT_TRUE(args.Has("covariates"));
  EXPECT_FALSE(args.Has("csv"));
}

TEST(CliParseTest, DefaultsWhenMissing) {
  CliArgs args = ParseVec({"prog", "train"});
  EXPECT_EQ(args.Get("model", "lipformer"), "lipformer");
  EXPECT_EQ(args.GetInt("input", 96), 96);
  EXPECT_DOUBLE_EQ(args.GetDouble("scale", 0.2), 0.2);
}

TEST(CliParseTest, NonOptionArgumentsRecordedAsStragglers) {
  CliArgs args = ParseVec({"prog", "list", "stray", "--seed=1"});
  EXPECT_EQ(args.command, "list");
  EXPECT_EQ(args.GetInt("seed", 0), 1);
  ASSERT_EQ(args.stragglers.size(), 1u);
  EXPECT_EQ(args.stragglers[0], "stray");
}

TEST(CliParseTest, TrainingHyperparameterOptions) {
  CliArgs args = ParseVec({"prog", "train", "--lr=0.005", "--loss=huber",
                           "--patience=3"});
  EXPECT_TRUE(ValidateArgs(args).ok());
  EXPECT_DOUBLE_EQ(args.GetDouble("lr", 1e-3), 0.005);
  EXPECT_EQ(args.Get("loss", "mse"), "huber");
  EXPECT_EQ(args.GetInt("patience", 0), 3);
}

TEST(CliValidateTest, AcceptsKnownWellFormedOptions) {
  CliArgs args = ParseVec({"prog", "train", "--model=dlinear", "--epochs=2",
                           "--scale=0.1", "--covariates"});
  EXPECT_TRUE(ValidateArgs(args).ok());
}

TEST(CliValidateTest, RejectsUnknownOption) {
  CliArgs args = ParseVec({"prog", "train", "--learning-rate=0.01"});
  Status st = ValidateArgs(args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unknown option --learning-rate"),
            std::string::npos);
}

// Serving has a single executor (compiled plans), so there is no switch
// to turn it off: --no-plan is an unknown option and a usage error.
TEST(CliValidateTest, RejectsRemovedNoPlanFlag) {
  CliArgs args = ParseVec({"prog", "serve", "--load=m.bundle", "--no-plan"});
  Status st = ValidateArgs(args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unknown option --no-plan"), std::string::npos);

  std::vector<std::string> argv_strings = {"prog", "serve",
                                           "--load=m.bundle", "--no-plan"};
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data()), 2);
}

// The batcher's worker takes whatever is queued the moment it is free,
// so there is no coalescing wait to set: --max-delay-ms is an unknown
// option and a usage error.
TEST(CliValidateTest, RejectsRemovedMaxDelayFlag) {
  CliArgs args =
      ParseVec({"prog", "serve", "--load=m.bundle", "--max-delay-ms=1"});
  Status st = ValidateArgs(args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("unknown option --max-delay-ms"),
            std::string::npos);

  std::vector<std::string> argv_strings = {"prog", "serve", "--load=m.bundle",
                                           "--max-delay-ms=1"};
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data()), 2);
}

TEST(CliValidateTest, RejectsStragglerArgument) {
  CliArgs args = ParseVec({"prog", "train", "etth1"});
  Status st = ValidateArgs(args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("'etth1'"), std::string::npos);
}

TEST(CliValidateTest, RejectsMalformedInteger) {
  CliArgs args = ParseVec({"prog", "train", "--epochs=five"});
  Status st = ValidateArgs(args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("--epochs expects an integer"),
            std::string::npos);
}

TEST(CliValidateTest, RejectsMalformedDouble) {
  CliArgs args = ParseVec({"prog", "train", "--lr=0.01x"});
  Status st = ValidateArgs(args);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("--lr expects a number"), std::string::npos);
}

TEST(CliNumberParseTest, ParseInt64IsStrict) {
  // The shared strict parsers (common/parse.h) behind ValidateArgs, so
  // `--batch=abc` is a usage error instead of silently becoming 0.
  int64_t v = 0;
  EXPECT_TRUE(lipformer::ParseInt64("42", &v));
  EXPECT_EQ(v, 42);
  EXPECT_TRUE(lipformer::ParseInt64("-7", &v));
  EXPECT_EQ(v, -7);
  EXPECT_FALSE(lipformer::ParseInt64("", &v));
  EXPECT_FALSE(lipformer::ParseInt64("12abc", &v));
  EXPECT_FALSE(lipformer::ParseInt64("abc", &v));
  EXPECT_FALSE(lipformer::ParseInt64("1.5", &v));
  EXPECT_FALSE(lipformer::ParseInt64("99999999999999999999", &v));  // overflow
}

TEST(CliNumberParseTest, ParseDoubleIsStrict) {
  double v = 0;
  EXPECT_TRUE(lipformer::ParseDouble("0.25", &v));
  EXPECT_DOUBLE_EQ(v, 0.25);
  EXPECT_TRUE(lipformer::ParseDouble("1e-3", &v));
  EXPECT_DOUBLE_EQ(v, 1e-3);
  EXPECT_FALSE(lipformer::ParseDouble("", &v));
  EXPECT_FALSE(lipformer::ParseDouble("0.1x", &v));
  EXPECT_FALSE(lipformer::ParseDouble("nanx", &v));
}

TEST(CliNumberParseTest, ParseFloatIsStrict) {
  // The shared strict parser (common/parse.h) behind the bundle
  // metadata's dropout field.
  float v = 0;
  EXPECT_TRUE(lipformer::ParseFloat("0.1", &v));
  EXPECT_FLOAT_EQ(v, 0.1f);
  EXPECT_FALSE(lipformer::ParseFloat("", &v));
  EXPECT_FALSE(lipformer::ParseFloat("0.1garbage", &v));
  EXPECT_FALSE(lipformer::ParseFloat("1e99999", &v));  // overflow
}

TEST(CliLoadSeriesTest, RegistryDataset) {
  CliArgs args = ParseVec({"prog", "train", "--dataset=etth1",
                           "--scale=0.05"});
  TimeSeries series;
  double tr, va, te;
  ASSERT_TRUE(LoadSeries(args, &series, &tr, &va, &te));
  EXPECT_EQ(series.channels(), 7);
  EXPECT_DOUBLE_EQ(tr, 0.6);  // ETT split
}

TEST(CliLoadSeriesTest, UnknownDatasetFails) {
  CliArgs args = ParseVec({"prog", "train", "--dataset=nope"});
  TimeSeries series;
  double tr, va, te;
  EXPECT_FALSE(LoadSeries(args, &series, &tr, &va, &te));
}

TEST(CliLoadSeriesTest, CsvPath) {
  SeasonalConfig gen;
  gen.steps = 80;
  gen.channels = 2;
  const std::string path = ::testing::TempDir() + "/cli_series.csv";
  ASSERT_TRUE(WriteCsvTimeSeries(path, GenerateSeasonal(gen)).ok());
  CliArgs args = ParseVec({"prog", "train", std::string("--csv=") + path});
  TimeSeries series;
  double tr, va, te;
  ASSERT_TRUE(LoadSeries(args, &series, &tr, &va, &te));
  EXPECT_EQ(series.steps(), 80);
  EXPECT_DOUBLE_EQ(tr, 0.7);  // generic split for user CSVs
}

TEST(CliLoadSeriesTest, MissingCsvFails) {
  CliArgs args = ParseVec({"prog", "train", "--csv=/no/such/file.csv"});
  TimeSeries series;
  double tr, va, te;
  EXPECT_FALSE(LoadSeries(args, &series, &tr, &va, &te));
}

TEST(CliMainTest, UnknownCommandReturnsUsageCode) {
  std::vector<std::string> argv_strings = {"prog", "frobnicate"};
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data()), 2);
}

TEST(CliMainTest, UnknownOptionReturnsUsageCode) {
  std::vector<std::string> argv_strings = {"prog", "list", "--frobnicate=1"};
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data()), 2);
}

TEST(CliMainTest, ListSucceeds) {
  std::vector<std::string> argv_strings = {"prog", "list"};
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data()), 0);
}

TEST(CliMainTest, ThreadsOutsideIntRangeReturnUsageCode) {
  // 2^31 does not fit in int and 2^32 + 1 would truncate to 1: both are
  // usage errors, never an abort or a silent single thread.
  for (const char* flag :
       {"--threads=0", "--threads=-2", "--threads=2147483648",
        "--threads=4294967297", "--threads=4abc"}) {
    std::vector<std::string> argv_strings = {"prog", "list", flag};
    std::vector<char*> argv;
    for (auto& s : argv_strings) argv.push_back(s.data());
    EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data()), 2) << flag;
  }
  std::vector<std::string> argv_strings = {"prog", "list", "--threads=2"};
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  EXPECT_EQ(Main(static_cast<int>(argv.size()), argv.data()), 0);
  EXPECT_EQ(GetNumThreads(), 2);
  SetNumThreads(DefaultNumThreads());
}

// Runs `serve` with one extra flag against a bundle path that does not
// exist. Exit 2 means the flag was refused before any bundle was opened;
// exit 1 means it passed validation and the missing bundle failed to load.
int ServeMissingBundle(const std::string& flag) {
  std::vector<std::string> argv_strings = {
      "prog", "serve", "--load=" + ::testing::TempDir() + "/no_such.bundle",
      flag};
  std::vector<char*> argv;
  for (auto& s : argv_strings) argv.push_back(s.data());
  return Main(static_cast<int>(argv.size()), argv.data());
}

// serve's durations become steady_clock offsets (now + d), which huge
// values overflow: every request would expire on arrival, or the flag
// would read as negative. Anything past 24 h is a usage error; 24 h
// itself passes.
TEST(CliMainTest, DeadlineAboveOneDayReturnsUsageCode) {
  EXPECT_EQ(ServeMissingBundle("--deadline-ms=86400001"), 2);
  EXPECT_EQ(ServeMissingBundle("--deadline-ms=9300000000000"), 2);
  EXPECT_EQ(ServeMissingBundle("--deadline-ms=18446744073709552"), 2);
  EXPECT_EQ(ServeMissingBundle("--deadline-ms=86400000"), 1);
}

TEST(CliMainTest, MaxQueueDelayAboveOneDayReturnsUsageCode) {
  EXPECT_EQ(ServeMissingBundle("--max-queue-delay-ms=86400001"), 2);
  EXPECT_EQ(ServeMissingBundle("--max-queue-delay-ms=9300000000000000"), 2);
  EXPECT_EQ(ServeMissingBundle("--max-queue-delay-ms=-1"), 2);
  EXPECT_EQ(ServeMissingBundle("--max-queue-delay-ms=86400000"), 1);
}

TEST(CliMainTest, BreakerCooldownAboveOneDayReturnsUsageCode) {
  EXPECT_EQ(ServeMissingBundle("--breaker-cooldown-ms=86400001"), 2);
  EXPECT_EQ(ServeMissingBundle("--breaker-cooldown-ms=9300000000000000"), 2);
  EXPECT_EQ(ServeMissingBundle("--breaker-cooldown-ms=86400000"), 1);
}

TEST(CliMainTest, ReloadPollAboveOneDayReturnsUsageCode) {
  EXPECT_EQ(ServeMissingBundle("--reload-poll-ms=86400001"), 2);
  EXPECT_EQ(ServeMissingBundle("--reload-poll-ms=9300000000000000"), 2);
  EXPECT_EQ(ServeMissingBundle("--reload-poll-ms=86400000"), 1);
}

// --max-batch sizes the batcher's per-size histogram: the int64 maximum
// would abort with std::length_error, and 10^8 would zero-fill 800 MB.
TEST(CliMainTest, MaxBatchAbove4096ReturnsUsageCode) {
  EXPECT_EQ(ServeMissingBundle("--max-batch=4097"), 2);
  EXPECT_EQ(ServeMissingBundle("--max-batch=9223372036854775807"), 2);
  EXPECT_EQ(ServeMissingBundle("--max-batch=0"), 2);
  EXPECT_EQ(ServeMissingBundle("--max-batch=4096"), 1);
}

TEST(CliParseTest, RepeatedOptionsKeepEveryOccurrenceInOrder) {
  CliArgs args = ParseVec({"prog", "serve", "--load=a=one.ckpt",
                           "--max-batch=8", "--load=b=two.ckpt"});
  EXPECT_TRUE(ValidateArgs(args).ok());
  const std::vector<std::string> loads = args.GetAll("load");
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_EQ(loads[0], "a=one.ckpt");
  EXPECT_EQ(loads[1], "b=two.ckpt");
  // The last-wins map still answers single-value lookups.
  EXPECT_EQ(args.Get("load", ""), "b=two.ckpt");
  EXPECT_EQ(args.GetAll("max-batch"), std::vector<std::string>{"8"});
  EXPECT_TRUE(args.GetAll("absent").empty());
}

TEST(CliValidateTest, RejectsMalformedEarlierOccurrenceOfRepeatedOption) {
  // The map keeps only "--epochs=3"; the malformed first occurrence must
  // still be a usage error.
  CliArgs args = ParseVec({"prog", "train", "--epochs=zz", "--epochs=3"});
  const Status valid = ValidateArgs(args);
  ASSERT_FALSE(valid.ok());
  EXPECT_NE(valid.message().find("zz"), std::string::npos);
}

TEST(CliServeProtocolTest, SplitModelPrefix) {
  std::string model;
  std::string rest;
  ASSERT_TRUE(SplitModelPrefix("m1|1,2,3", &model, &rest));
  EXPECT_EQ(model, "m1");
  EXPECT_EQ(rest, "1,2,3");

  ASSERT_TRUE(SplitModelPrefix("1,2,3", &model, &rest));
  EXPECT_EQ(model, "");
  EXPECT_EQ(rest, "1,2,3");

  EXPECT_FALSE(SplitModelPrefix("|1,2,3", &model, &rest));
}

TEST(CliServeProtocolTest, ParseRequestValuesHappyPath) {
  std::vector<float> values;
  std::string error;
  ASSERT_TRUE(ParseRequestValues("1,2.5,-3,4e0", 4, &values, &error));
  ASSERT_EQ(values.size(), 4u);
  EXPECT_FLOAT_EQ(values[1], 2.5f);
  EXPECT_FLOAT_EQ(values[2], -3.0f);
}

TEST(CliServeProtocolTest, ParseErrorReportsTrueFieldCountAndBadToken) {
  std::vector<float> values;
  std::string error;
  // Bugfix: the old message reported the count at the first malformed
  // field ("got 2"), not the line's true field count.
  ASSERT_FALSE(ParseRequestValues("1,2,oops,4,5", 4, &values, &error));
  EXPECT_NE(error.find("needs 4"), std::string::npos);
  EXPECT_NE(error.find("got 5"), std::string::npos);
  EXPECT_NE(error.find("field 3"), std::string::npos);
  EXPECT_NE(error.find("'oops'"), std::string::npos);
}

TEST(CliServeProtocolTest, ParseErrorOnWrongCountAlone) {
  std::vector<float> values;
  std::string error;
  ASSERT_FALSE(ParseRequestValues("1,2", 4, &values, &error));
  EXPECT_NE(error.find("needs 4"), std::string::npos);
  EXPECT_NE(error.find("got 2"), std::string::npos);
  // All fields numeric: no offending token to name.
  EXPECT_EQ(error.find("field"), std::string::npos);
}

}  // namespace
}  // namespace cli
}  // namespace lipformer
