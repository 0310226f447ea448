#include "cli/cli.h"

#include "common/parse.h"

// Command-line front end for the library.
//
//   lipformer_cli list
//   lipformer_cli train --model=lipformer --dataset=etth1 [options]
//   lipformer_cli forecast --dataset=weather --out=pred.csv [options]
//   lipformer_cli serve --load=FILE [options]
//
// Common options:
//   --csv=FILE        use a CSV time series instead of a registry dataset
//   --dataset=NAME    registry dataset (see `list`)
//   --scale=X         registry series length fraction (default 0.2)
//   --model=NAME      forecaster (see `list`; default lipformer)
//   --input=N         look-back length (default 96)
//   --horizon=N       forecast length (default 24)
//   --epochs=N        training epochs (default 5)
//   --batch=N         batch size (default 32)
//   --hidden=N        hidden feature size (default 64)
//   --lr=X            learning rate (default 1e-3; EXPERIMENTS.md lists
//                     the per-model tuned values)
//   --loss=NAME       training loss: smoothl1 (default) | mse | mae
//   --patience=N      early-stopping patience (default max(2, epochs/2))
//   --covariates      enable the weak-data-enriching pipeline (lipformer)
//   --save=FILE       (train) write the trained model as a serving
//                     bundle: checkpoint v2 with config + scaler, loadable
//                     by `serve --load` with no retraining. With
//                     --covariates the file instead holds raw best
//                     parameters (bundles don't carry the dual encoder).
//                     Refuses to overwrite an existing file unless --force
//                     (or --resume, where the killed run may have written
//                     it already).
//   --force           overwrite existing --save output
//   --snapshot=FILE   (train) crash-safety snapshot: full training state
//                     written atomically every --snapshot-every epochs and
//                     on SIGINT/SIGTERM after the in-flight step
//   --snapshot-every=N  snapshot cadence in epochs (default 1)
//   --resume=FILE     (train) continue a killed run from its snapshot;
//                     with the same flags the final model is bitwise
//                     identical to an uninterrupted run
//   --lr-schedule=S   none (default) | cosine | step
//   --out=FILE        (forecast) output CSV path
//   --seed=N          RNG seed
//   --threads=N       tensor-kernel threads (default: LIPF_NUM_THREADS or
//                     hardware concurrency; 1 = serial; results are
//                     bitwise identical for every N)
//
// Serve options (see CmdServe for the request protocol):
//   --load=FILE       serving bundle written by `train --save`; repeatable
//   --load=name=FILE  as name=FILE to serve several models from one
//                     process (a bare FILE is served as "default"); route
//                     requests with a "<name>|" line prefix
//   --requests=FILE   request lines (default: stdin)
//   --max-batch=N     micro-batcher batch cap (default 16, at most 4096);
//                     the worker never waits for stragglers, it takes
//                     whatever is queued when it is free
//   --queue-capacity=N  per-model bounded request queue (default 256);
//                     the CLI producer blocks for a slot (flow control)
//                     instead of surfacing backpressure as errors
//   --reload-poll-ms=N  hot-reload watcher cadence (default 200, 0 = off):
//                     publishing a new bundle over a loaded path with an
//                     atomic rename swaps it in with zero downtime; a
//                     bundle failing validation keeps the old model
//                     serving and logs the error
//   --deadline-ms=N   per-request deadline (default 0 = none): a request
//                     that cannot be answered in time completes with
//                     "error: DeadlineExceeded" instead of occupying the
//                     queue; admission control sheds with
//                     "error: Overloaded ... retry after Nms" when the
//                     estimated queue drain already exceeds the deadline
//   --max-queue-delay-ms=N  admission cap on the estimated queue drain
//                     (default 0 = off); requests behind a deeper backlog
//                     are shed with "error: Overloaded" + retry-after
//   --breaker-failures=N  consecutive request failures that trip the
//                     per-model circuit breaker (default 8; 0 disables);
//                     while open, requests answer "error: Unavailable:
//                     circuit breaker open ... retry after Nms"
//   --breaker-cooldown-ms=N  how long a tripped breaker stays open before
//                     half-open probe requests test recovery (default 250)
//   Every *-ms duration is at most 86400000 (24 h); a larger value, like
//   --max-batch above 4096, is a usage error (exit 2).
//
// At runtime `serve` answers "!stats" request lines and SIGHUP with a
// registry status dump (per-model reload + batcher counters) on stderr,
// and "!health" request lines with one "health model=... breaker=..."
// line per model on stdout (in answer order, so scripted clients can
// poll health mid-stream). SIGPIPE is ignored: a client disconnecting
// mid-stream drains in-flight requests and exits cleanly instead of
// killing the server.
//
// Unknown --options, stray non-option arguments and malformed numbers are
// usage errors (they used to be silently ignored / parsed as 0).

#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <future>
#include <iostream>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/profiler.h"
#include "common/atomic_file.h"
#include "common/interrupt.h"
#include "common/thread_pool.h"
#include "core/lipformer.h"
#include "data/csv.h"
#include "data/registry.h"
#include "models/factory.h"
#include "serve/batcher.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "train/extended_metrics.h"
#include "train/trainer.h"

namespace lipformer {
namespace cli {
namespace {

enum class OptionKind { kFlag, kInt, kDouble, kString };

struct OptionSpec {
  const char* key;
  OptionKind kind;
};

// Every option any command understands; ValidateArgs rejects the rest.
constexpr OptionSpec kOptionSpecs[] = {
    {"csv", OptionKind::kString},      {"dataset", OptionKind::kString},
    {"scale", OptionKind::kDouble},    {"model", OptionKind::kString},
    {"input", OptionKind::kInt},       {"horizon", OptionKind::kInt},
    {"epochs", OptionKind::kInt},      {"batch", OptionKind::kInt},
    {"hidden", OptionKind::kInt},      {"lr", OptionKind::kDouble},
    {"loss", OptionKind::kString},     {"patience", OptionKind::kInt},
    {"covariates", OptionKind::kFlag}, {"save", OptionKind::kString},
    {"out", OptionKind::kString},      {"seed", OptionKind::kInt},
    {"threads", OptionKind::kInt},     {"load", OptionKind::kString},
    {"requests", OptionKind::kString}, {"max-batch", OptionKind::kInt},
    {"queue-capacity", OptionKind::kInt},
    {"reload-poll-ms", OptionKind::kInt},
    {"deadline-ms", OptionKind::kInt},
    {"max-queue-delay-ms", OptionKind::kInt},
    {"breaker-failures", OptionKind::kInt},
    {"breaker-cooldown-ms", OptionKind::kInt},
    {"snapshot", OptionKind::kString}, {"snapshot-every", OptionKind::kInt},
    {"resume", OptionKind::kString},   {"force", OptionKind::kFlag},
    {"lr-schedule", OptionKind::kString},
};

const OptionSpec* FindOptionSpec(const std::string& key) {
  for (const OptionSpec& spec : kOptionSpecs) {
    if (key == spec.key) return &spec;
  }
  return nullptr;
}

}  // namespace

std::string CliArgs::Get(const std::string& key,
                         const std::string& def) const {
  auto it = options.find(key);
  return it == options.end() ? def : it->second;
}

int64_t CliArgs::GetInt(const std::string& key, int64_t def) const {
  auto it = options.find(key);
  if (it == options.end()) return def;
  int64_t value = def;
  return ParseInt64(it->second, &value) ? value : def;
}

double CliArgs::GetDouble(const std::string& key, double def) const {
  auto it = options.find(key);
  if (it == options.end()) return def;
  double value = def;
  return ParseDouble(it->second, &value) ? value : def;
}

CliArgs Parse(int argc, char** argv) {
  CliArgs args;
  if (argc > 1) args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      args.stragglers.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    std::string value = eq == std::string::npos ? "1" : arg.substr(eq + 1);
    args.options[key] = value;
    args.ordered.emplace_back(std::move(key), std::move(value));
  }
  return args;
}

std::vector<std::string> CliArgs::GetAll(const std::string& key) const {
  std::vector<std::string> values;
  for (const auto& [k, v] : ordered) {
    if (k == key) values.push_back(v);
  }
  // CliArgs built by hand (tests) may fill only the map.
  if (values.empty()) {
    auto it = options.find(key);
    if (it != options.end()) values.push_back(it->second);
  }
  return values;
}

Status ValidateArgs(const CliArgs& args) {
  if (!args.stragglers.empty()) {
    return Status::InvalidArgument("unexpected argument '" +
                                   args.stragglers.front() +
                                   "' (options are --key or --key=value)");
  }
  // Check every occurrence: `--epochs=zz --epochs=3` leaves only "3" in
  // the last-wins map, but the malformed first occurrence is still a
  // usage error. Hand-built CliArgs (tests) may fill only the map, so
  // validate the union of both.
  std::vector<std::pair<std::string, std::string>> occurrences(
      args.ordered.begin(), args.ordered.end());
  occurrences.insert(occurrences.end(), args.options.begin(),
                     args.options.end());
  for (const auto& [key, value] : occurrences) {
    const OptionSpec* spec = FindOptionSpec(key);
    if (spec == nullptr) {
      return Status::InvalidArgument("unknown option --" + key);
    }
    if (spec->kind == OptionKind::kInt) {
      int64_t parsed;
      if (!ParseInt64(value, &parsed)) {
        return Status::InvalidArgument("option --" + key +
                                       " expects an integer, got '" +
                                       value + "'");
      }
    } else if (spec->kind == OptionKind::kDouble) {
      double parsed;
      if (!ParseDouble(value, &parsed)) {
        return Status::InvalidArgument("option --" + key +
                                       " expects a number, got '" + value +
                                       "'");
      }
    }
  }
  return Status::OK();
}

int CmdList() {
  std::printf("datasets:\n");
  for (const std::string& name : RegisteredDatasetNames()) {
    DatasetSpec spec = MakeDataset(name, 0.05);
    std::printf("  %-14s %s\n", name.c_str(), spec.description.c_str());
  }
  std::printf("models:\n");
  for (const std::string& name : RegisteredModelNames()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

// Loads the series selected by --csv / --dataset and fills split ratios.
bool LoadSeries(const CliArgs& args, TimeSeries* series, double* train_ratio,
                double* val_ratio, double* test_ratio) {
  *train_ratio = 0.7;
  *val_ratio = 0.1;
  *test_ratio = 0.2;
  if (args.Has("csv")) {
    Result<TimeSeries> loaded = ReadCsvTimeSeries(args.Get("csv", ""));
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   loaded.status().ToString().c_str());
      return false;
    }
    *series = loaded.MoveValue();
    return true;
  }
  const std::string name = args.Get("dataset", "etth1");
  if (!IsRegisteredDataset(name)) {
    std::fprintf(stderr, "error: unknown dataset '%s' (try `list`)\n",
                 name.c_str());
    return false;
  }
  DatasetSpec spec = MakeDataset(name, args.GetDouble("scale", 0.2));
  *series = spec.series;
  *train_ratio = spec.train_ratio;
  *val_ratio = spec.val_ratio;
  *test_ratio = spec.test_ratio;
  return true;
}

namespace {

struct TrainedModel {
  std::unique_ptr<Forecaster> model;
  std::unique_ptr<LiPFormer> lip;  // set when model_name == lipformer
  std::unique_ptr<DualEncoder> dual;
  TrainResult result;
  // What the model was built with, so CmdTrain can write a serving bundle
  // the factory can reconstruct (serve/session.h).
  std::string model_name;
  ModelOptions options;
};

// Maps a --loss value to LossKind; false on unknown names.
bool ParseLossKind(const std::string& name, LossKind* out) {
  if (name == "smoothl1") {
    *out = LossKind::kSmoothL1;
  } else if (name == "mse") {
    *out = LossKind::kMse;
  } else if (name == "mae") {
    *out = LossKind::kMae;
  } else {
    return false;
  }
  return true;
}

bool TrainFromArgs(const CliArgs& args, WindowDataset& data,
                   TrainedModel* out) {
  const std::string model_name = args.Get("model", "lipformer");
  const int64_t input_len = args.GetInt("input", 96);
  const int64_t horizon = args.GetInt("horizon", 24);

  TrainConfig train;
  train.epochs = args.GetInt("epochs", 5);
  train.patience =
      args.GetInt("patience", std::max<int64_t>(2, train.epochs / 2));
  train.batch_size = args.GetInt("batch", 32);
  train.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  train.lr = static_cast<float>(args.GetDouble("lr", train.lr));
  if (!ParseLossKind(args.Get("loss", "smoothl1"), &train.loss)) {
    std::fprintf(stderr,
                 "error: unknown loss '%s' (want smoothl1, mse or mae)\n",
                 args.Get("loss", "").c_str());
    return false;
  }
  train.verbose = true;
  if (args.Has("save")) train.checkpoint_path = args.Get("save", "");

  // Crash safety: snapshots + exact resume + graceful SIGINT/SIGTERM.
  train.snapshot_path = args.Get("snapshot", "");
  train.snapshot_every = args.GetInt("snapshot-every", 1);
  train.resume_path = args.Get("resume", "");
  train.handle_signals = true;
  if (train.snapshot_every < 1) {
    std::fprintf(stderr, "error: --snapshot-every must be >= 1\n");
    return false;
  }
  const std::string schedule = args.Get("lr-schedule", "none");
  if (schedule == "none") {
    train.lr_schedule = LrScheduleKind::kNone;
  } else if (schedule == "cosine") {
    train.lr_schedule = LrScheduleKind::kCosine;
  } else if (schedule == "step") {
    train.lr_schedule = LrScheduleKind::kStep;
  } else {
    std::fprintf(stderr,
                 "error: unknown --lr-schedule '%s' (want none, cosine or "
                 "step)\n",
                 schedule.c_str());
    return false;
  }
  if (args.Has("covariates") &&
      (args.Has("snapshot") || args.Has("resume"))) {
    // The covariate pipeline runs an extra pretraining phase the snapshot
    // format does not cover; a "resumed" run would silently diverge.
    std::fprintf(stderr, "error: --snapshot/--resume do not support "
                         "--covariates yet\n");
    return false;
  }

  out->model_name = model_name;
  if (model_name == "lipformer") {
    LiPFormerConfig config;
    config.input_len = input_len;
    config.pred_len = horizon;
    config.channels = data.channels();
    config.hidden_dim = args.GetInt("hidden", 64);
    config.seed = train.seed;
    // Largest divisor of T not exceeding 48.
    for (int64_t pl = std::min<int64_t>(48, input_len); pl >= 1; --pl) {
      if (input_len % pl == 0) {
        config.patch_len = pl;
        break;
      }
    }
    out->options.patch_len = config.patch_len;
    out->options.hidden_dim = config.hidden_dim;
    out->options.num_heads = config.num_heads;
    out->options.dropout = config.dropout;
    out->options.seed = config.seed;
    out->lip = std::make_unique<LiPFormer>(config);
    if (args.Has("covariates")) {
      Rng rng(train.seed + 1);
      out->dual = std::make_unique<DualEncoder>(
          MakeCovariateConfig(data, horizon), data.channels(), rng);
      PretrainConfig pretrain;
      pretrain.epochs = std::max<int64_t>(2, train.epochs / 2);
      pretrain.verbose = true;
      LiPFormerPipelineResult piped = TrainLiPFormerPipeline(
          out->lip.get(), out->dual.get(), data, pretrain, train);
      out->result = piped.train;
    } else {
      out->result = TrainAndEvaluate(out->lip.get(), data, train);
    }
    return true;
  }

  bool known = false;
  for (const std::string& name : RegisteredModelNames()) {
    if (name == model_name) known = true;
  }
  if (!known) {
    std::fprintf(stderr, "error: unknown model '%s' (try `list`)\n",
                 model_name.c_str());
    return false;
  }
  ForecasterDims dims{input_len, horizon, data.channels()};
  ModelOptions options;
  options.hidden_dim = args.GetInt("hidden", 64);
  options.seed = train.seed;
  options.num_covariates = data.num_numeric_covariates();
  out->options = options;
  out->model = CreateModel(model_name, dims, options);
  out->result = TrainAndEvaluate(out->model.get(), data, train);
  return true;
}

Forecaster* ActiveModel(TrainedModel& trained) {
  return trained.lip ? static_cast<Forecaster*>(trained.lip.get())
                     : trained.model.get();
}

}  // namespace

int CmdTrain(const CliArgs& args) {
  TimeSeries series;
  double tr, va, te;
  if (!LoadSeries(args, &series, &tr, &va, &te)) return 1;

  WindowDataset::Options options;
  options.input_len = args.GetInt("input", 96);
  options.pred_len = args.GetInt("horizon", 24);
  options.train_ratio = tr;
  options.val_ratio = va;
  options.test_ratio = te;
  WindowDataset data(series, options);

  // Refuse to clobber an existing trained model. --resume is exempt: the
  // killed run may legitimately have written --save already.
  if (args.Has("save") && !args.Has("force") && !args.Has("resume") &&
      PathExists(args.Get("save", ""))) {
    std::fprintf(stderr,
                 "error: --save target '%s' already exists; pass --force "
                 "to overwrite\n",
                 args.Get("save", "").c_str());
    return 2;
  }

  TrainedModel trained;
  if (!TrainFromArgs(args, data, &trained)) return 1;
  if (!trained.result.status.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 trained.result.status.ToString().c_str());
    return 1;
  }
  if (trained.result.interrupted) {
    // The model holds mid-run weights; metrics/bundles would be
    // misleading. Exit code 3 tells scripts this is a resumable stop.
    std::fprintf(stderr,
                 "interrupted after %lld epochs; resume with "
                 "`lipformer_cli train ... --resume=%s`\n",
                 static_cast<long long>(trained.result.epochs_run),
                 args.Get("snapshot", "<snapshot>").c_str());
    return 3;
  }
  Forecaster* model = ActiveModel(trained);

  // Extended metrics over (a capped number of) test windows.
  model->SetTraining(false);
  NoGradGuard ng;
  const int64_t n = std::min<int64_t>(data.NumWindows(Split::kTest), 256);
  std::vector<int64_t> ids;
  for (int64_t i = 0; i < n; ++i) ids.push_back(i);
  Batch batch = data.MakeBatch(Split::kTest, ids);
  ExtendedMetrics m =
      ComputeExtendedMetrics(model->Forward(batch).value(), batch.y);
  std::printf("\n%s on %lld test windows:\n", model->name().c_str(),
              static_cast<long long>(n));
  std::printf("  MSE %.4f  MAE %.4f  RSE %.4f  CORR %.4f  sMAPE %.4f\n",
              m.mse, m.mae, m.rse, m.corr, m.smape);
  std::printf("  params %lld, %.2fs/epoch\n",
              static_cast<long long>(model->ParameterCount()),
              trained.result.seconds_per_epoch);
  if (args.Has("save")) {
    const std::string save_path = args.Get("save", "");
    if (trained.dual) {
      // The covariate-enriched model needs the dual encoder at inference;
      // bundles don't carry it, so the trainer-written parameter
      // checkpoint (best-validation weights) is all we can offer.
      std::printf("  best parameter checkpoint at %s (covariate pipeline: "
                  "not a serving bundle)\n",
                  save_path.c_str());
    } else {
      // The trainer restored the best-validation weights above, so the
      // bundle (config + scaler + parameters) snapshots exactly them —
      // loadable by `lipformer_cli serve --load` with no retraining.
      const Status st = serve::SaveModelBundle(save_path, trained.model_name,
                                               trained.options, *model,
                                               data.scaler());
      if (!st.ok()) {
        std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
        return 1;
      }
      std::printf("  serving bundle at %s\n", save_path.c_str());
    }
  }
  return 0;
}

int CmdForecast(const CliArgs& args) {
  TimeSeries series;
  double tr, va, te;
  if (!LoadSeries(args, &series, &tr, &va, &te)) return 1;

  WindowDataset::Options options;
  options.input_len = args.GetInt("input", 96);
  options.pred_len = args.GetInt("horizon", 24);
  options.train_ratio = tr;
  options.val_ratio = va;
  options.test_ratio = te;
  WindowDataset data(series, options);

  TrainedModel trained;
  if (!TrainFromArgs(args, data, &trained)) return 1;
  if (!trained.result.status.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 trained.result.status.ToString().c_str());
    return 1;
  }
  if (trained.result.interrupted) {
    std::fprintf(stderr, "interrupted; no forecast written\n");
    return 3;
  }
  Forecaster* model = ActiveModel(trained);

  model->SetTraining(false);
  NoGradGuard ng;
  const int64_t num_test = data.NumWindows(Split::kTest);
  if (num_test <= 0) {
    std::fprintf(stderr,
                 "error: series too short for input=%lld horizon=%lld "
                 "(no complete test window)\n",
                 static_cast<long long>(options.input_len),
                 static_cast<long long>(options.pred_len));
    return 1;
  }
  Batch batch = data.MakeBatch(Split::kTest, {num_test - 1});
  Tensor pred = model->Forward(batch).value().Reshape(
      {options.pred_len, data.channels()});
  Tensor truth = batch.y.Reshape({options.pred_len, data.channels()});

  TimeSeries out;
  out.values = Concat({data.scaler().InverseTransform(pred),
                       data.scaler().InverseTransform(truth)},
                      1);
  for (int64_t j = 0; j < data.channels(); ++j) {
    out.channel_names.push_back("pred_ch" + std::to_string(j));
  }
  for (int64_t j = 0; j < data.channels(); ++j) {
    out.channel_names.push_back("true_ch" + std::to_string(j));
  }
  if (static_cast<int64_t>(series.timestamps.size()) >= options.pred_len) {
    out.timestamps.assign(series.timestamps.end() - options.pred_len,
                          series.timestamps.end());
  } else {
    // Series without (enough) timestamps: synthesize index-based ones so
    // the output CSV stays well-formed instead of reading past the front
    // of the timestamp vector (UB in the old code).
    out.timestamps = MakeTimestamps(DateTime{}, /*minutes_per_step=*/60,
                                    options.pred_len);
  }
  const std::string out_path = args.Get("out", "forecast.csv");
  Status st = WriteCsvTimeSeries(out_path, out);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (prediction + truth, original units)\n",
              out_path.c_str());
  return 0;
}

bool SplitModelPrefix(const std::string& line, std::string* model,
                      std::string* rest) {
  const size_t bar = line.find('|');
  if (bar == std::string::npos) {
    model->clear();
    *rest = line;
    return true;
  }
  *model = line.substr(0, bar);
  *rest = line.substr(bar + 1);
  return !model->empty();
}

bool ParseRequestValues(const std::string& csv, int64_t expected,
                        std::vector<float>* values, std::string* error) {
  values->clear();
  values->reserve(static_cast<size_t>(expected));
  int64_t fields = 0;
  int64_t bad_field = 0;  // 1-based; 0 = all numeric so far
  std::string bad_token;
  std::stringstream stream(csv);
  std::string field;
  while (std::getline(stream, field, ',')) {
    ++fields;
    double value;
    if (!ParseDouble(field, &value)) {
      // Keep counting: the error should report the line's true field
      // count, not how far parsing got (the old message said "got 2" for
      // a 48-field line whose 3rd field was bad).
      if (bad_field == 0) {
        bad_field = fields;
        bad_token = field;
      }
      continue;
    }
    if (bad_field == 0) values->push_back(static_cast<float>(value));
  }
  if (bad_field == 0 && fields == expected) return true;
  *error = "error: request needs " + std::to_string(expected) +
           " comma-separated numbers, got " + std::to_string(fields);
  if (bad_field != 0) {
    *error += " (field " + std::to_string(bad_field) + ": '" + bad_token +
              "' is not a number)";
  }
  return false;
}

namespace {

// Startup banner for one model's compiled plan.
void PrintPlanBanner(const serve::PlanStats& stats) {
  std::fprintf(stderr,
               "inference plan: %lld ops, %lld-byte arena, %lld "
               "constants, %lld prepacked GEMMs, %lld fused "
               "transposes\n",
               static_cast<long long>(stats.num_ops),
               static_cast<long long>(stats.arena_bytes),
               static_cast<long long>(stats.num_constants),
               static_cast<long long>(stats.prepacked_gemms),
               static_cast<long long>(stats.fused_gemm_operands));
  std::fprintf(stderr,
               "inference plan: fusion %lld GEMM epilogues, %lld passes "
               "eliminated\n",
               static_cast<long long>(stats.fused_epilogues),
               static_cast<long long>(stats.passes_eliminated));
}

// Exit summary of one model's plan (the request count is on the model's
// "served" line): the per-op-kind profile.
void PrintPlanSummary(const std::string& name,
                      const serve::InferencePlan& plan) {
  std::fprintf(stderr, "plan '%s': op time by kind, summed over rows\n",
               name.c_str());
  for (const serve::PlanOpTiming& t : plan.OpTimings()) {
    std::fprintf(stderr, "plan:   %-22s %s calls  %s\n", t.name,
                 FormatCount(static_cast<double>(t.calls)).c_str(),
                 FormatSeconds(static_cast<double>(t.total_ns) * 1e-9)
                     .c_str());
  }
}

// Registry status dump for "!stats" request lines and SIGHUP.
void PrintRegistryStatus(const serve::ModelRegistry& registry) {
  const std::vector<serve::ModelInfo> models = registry.Models();
  std::fprintf(stderr, "registry: %lld model(s)\n",
               static_cast<long long>(models.size()));
  for (const serve::ModelInfo& m : models) {
    std::fprintf(
        stderr,
        "registry:   %s (%s): [%lld,%lld]->[%lld,%lld]%s "
        "reloads=%lld failures=%lld submitted=%lld completed=%lld "
        "rejected=%lld expired=%lld p50=%.3fms p99=%.3fms\n",
        m.name.c_str(), m.path.c_str(), static_cast<long long>(m.input_len),
        static_cast<long long>(m.channels), static_cast<long long>(m.pred_len),
        static_cast<long long>(m.channels), m.quantized ? " int8" : "",
        static_cast<long long>(m.reloads),
        static_cast<long long>(m.reload_failures),
        static_cast<long long>(m.batcher.submitted),
        static_cast<long long>(m.batcher.completed),
        static_cast<long long>(m.batcher.rejected_full),
        static_cast<long long>(m.batcher.expired),
        m.batcher.p50_latency_seconds * 1e3,
        m.batcher.p99_latency_seconds * 1e3);
    std::fprintf(
        stderr,
        "registry:   %s: breaker=%s trips=%lld shed=%lld nonfinite=%lld "
        "queue=%lld est_batch=%.3fms\n",
        m.name.c_str(), serve::BreakerStateName(m.batcher.breaker.state),
        static_cast<long long>(m.batcher.breaker.trips),
        static_cast<long long>(m.batcher.shed_overload),
        static_cast<long long>(m.batcher.nonfinite_answers),
        static_cast<long long>(m.batcher.queue_depth),
        m.batcher.cost_ewma_seconds * 1e3);
    if (!m.last_error.empty()) {
      std::fprintf(stderr, "registry:   %s: last reload error: %s\n",
                   m.name.c_str(), m.last_error.c_str());
    }
  }
}

// One "!health" answer line per model: machine-parseable key=value pairs
// (scripts/check_chaos.sh greps them). Add keys freely; dropping or
// renaming one breaks scripted clients, so record it in CHANGES.md.
std::string FormatHealthLines(const serve::ModelRegistry& registry) {
  std::string out;
  char buf[512];
  for (const serve::ModelInfo& m : registry.Models()) {
    std::snprintf(
        buf, sizeof(buf),
        "health model=%s breaker=%s trips=%lld probes=%lld "
        "breaker_rejected=%lld queue=%lld est_batch_ms=%.3f shed=%lld "
        "expired=%lld nonfinite=%lld executed_past_deadline=%lld "
        "retry_after_ms=%lld reloads=%lld reload_failures=%lld",
        m.name.c_str(), serve::BreakerStateName(m.batcher.breaker.state),
        static_cast<long long>(m.batcher.breaker.trips),
        static_cast<long long>(m.batcher.breaker.probes),
        static_cast<long long>(m.batcher.breaker.rejected),
        static_cast<long long>(m.batcher.queue_depth),
        m.batcher.cost_ewma_seconds * 1e3,
        static_cast<long long>(m.batcher.shed_overload),
        static_cast<long long>(m.batcher.expired),
        static_cast<long long>(m.batcher.nonfinite_answers),
        static_cast<long long>(m.batcher.executed_past_deadline),
        static_cast<long long>(m.batcher.breaker.retry_after.count()),
        static_cast<long long>(m.reloads),
        static_cast<long long>(m.reload_failures));
    if (!out.empty()) out += "\n";
    out += buf;
  }
  if (out.empty()) out = "health (no models loaded)";
  return out;
}

}  // namespace

// Request protocol of `serve`: one request per line — the flattened
// row-major [input_len, channels] history as comma-separated numbers,
// optionally routed with a "<model>|" prefix when several models are
// loaded (--load=name=FILE, repeatable; the prefix is required then).
// Each answer line is the flattened [pred_len, channels] prediction (raw
// units), or "error: ..." for malformed/rejected requests. Answers
// stream in input order as each head-of-line request completes (a
// dedicated writer thread), so interactive clients get responses without
// waiting for EOF; requests still coalesce through each model's
// micro-batcher. A "!stats" line or SIGHUP dumps registry status to
// stderr; a per-model summary goes to stderr on exit.
int CmdServe(const CliArgs& args) {
  // --load is repeatable: name=FILE routes by name, bare FILE serves as
  // "default".
  std::vector<std::pair<std::string, std::string>> loads;
  for (const std::string& value : args.GetAll("load")) {
    const size_t eq = value.find('=');
    std::string name =
        eq == std::string::npos ? "default" : value.substr(0, eq);
    std::string path = eq == std::string::npos ? value : value.substr(eq + 1);
    if (name.empty() || path.empty()) {
      std::fprintf(stderr,
                   "error: --load expects FILE or name=FILE, got '%s'\n",
                   value.c_str());
      return 2;
    }
    for (const auto& [existing_name, existing_path] : loads) {
      (void)existing_path;
      if (existing_name == name) {
        std::fprintf(stderr, "error: duplicate --load name '%s'\n",
                     name.c_str());
        return 2;
      }
    }
    loads.emplace_back(std::move(name), std::move(path));
  }
  if (loads.empty()) {
    std::fprintf(stderr,
                 "error: serve needs --load=FILE or --load=name=FILE "
                 "(a bundle written by train --save)\n");
    return 2;
  }

  // Range-check before converting: every duration becomes a steady_clock
  // offset (now + d, in micro- or nanoseconds) and --max-batch sizes the
  // batcher's histogram, so an unchecked value overflows or exhausts
  // memory instead of serving.
  constexpr int64_t kMaxDurationMs = 86400000;  // 24 h
  constexpr int64_t kMaxBatch = 4096;
  for (const char* flag : {"reload-poll-ms", "deadline-ms",
                           "max-queue-delay-ms", "breaker-cooldown-ms"}) {
    const int64_t ms = args.GetInt(flag, 0);
    if (ms < 0 || ms > kMaxDurationMs) {
      std::fprintf(stderr, "error: --%s must be in [0, %lld] (24 h)\n", flag,
                   static_cast<long long>(kMaxDurationMs));
      return 2;
    }
  }
  serve::RegistryOptions registry_options;
  registry_options.batcher.max_batch_size = args.GetInt("max-batch", 16);
  registry_options.batcher.queue_capacity =
      args.GetInt("queue-capacity", 256);
  registry_options.reload_poll =
      std::chrono::milliseconds(args.GetInt("reload-poll-ms", 200));
  registry_options.batcher.max_queue_delay =
      std::chrono::milliseconds(args.GetInt("max-queue-delay-ms", 0));
  registry_options.batcher.breaker.failure_threshold =
      args.GetInt("breaker-failures", 8);
  registry_options.batcher.breaker.cooldown =
      std::chrono::milliseconds(args.GetInt("breaker-cooldown-ms", 250));
  const std::chrono::microseconds request_deadline =
      std::chrono::milliseconds(args.GetInt("deadline-ms", 0));
  registry_options.verbose = true;
  if (registry_options.batcher.max_batch_size < 1 ||
      registry_options.batcher.max_batch_size > kMaxBatch) {
    std::fprintf(stderr, "error: --max-batch must be in [1, %lld]\n",
                 static_cast<long long>(kMaxBatch));
    return 2;
  }
  if (registry_options.batcher.queue_capacity < 1) {
    std::fprintf(stderr, "error: --queue-capacity must be >= 1\n");
    return 2;
  }

  serve::ModelRegistry registry(registry_options);
  for (const auto& [name, path] : loads) {
    const Status loaded = registry.Load(name, path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: cannot load model '%s': %s\n",
                   name.c_str(), loaded.ToString().c_str());
      return 1;
    }
  }

  const bool multi = registry.size() > 1;
  for (const auto& [name, path] : loads) {
    (void)path;
    std::shared_ptr<serve::ServingModel> model = registry.Find(name);
    serve::InferenceSession* session = model->session();
    std::fprintf(
        stderr,
        "serving %s as '%s' (input=%lld horizon=%lld channels=%lld); one "
        "request per line: %s%lld comma-separated values\n",
        session->model_name().c_str(), name.c_str(),
        static_cast<long long>(session->input_len()),
        static_cast<long long>(session->pred_len()),
        static_cast<long long>(session->channels()),
        multi ? ("'" + name + "|' then ").c_str() : "",
        static_cast<long long>(session->input_len() * session->channels()));
    PrintPlanBanner(session->PlanForBatch(1)->stats());
    session->SetPlanProfiling(true);
  }

  std::ifstream file;
  std::istream* in = &std::cin;
  if (args.Has("requests")) {
    file.open(args.Get("requests", ""));
    if (!file) {
      std::fprintf(stderr, "error: cannot open %s\n",
                   args.Get("requests", "").c_str());
      return 1;
    }
    in = &file;
  }

  // Graceful shutdown: the first SIGINT/SIGTERM stops the accept loop
  // below; everything already submitted still drains through the batcher
  // and is answered before exit (a second signal kills the process).
  // SIGHUP requests a registry status dump instead. SIGPIPE must not
  // kill the server from inside the writer thread when a client closes
  // the answer stream mid-flight; the EPIPE surfaces on fflush instead
  // and maps to a clean drain below.
  InstallInterruptHandlers();
  InstallStatsRequestHandler();
  IgnoreSigPipe();

  struct OutputSlot {
    std::string error;  // non-empty: print this instead of a prediction
    std::future<Result<Tensor>> future;
  };
  std::deque<OutputSlot> output_queue;
  std::mutex output_mu;
  std::condition_variable output_cv;
  bool input_done = false;

  // Bugfix: answers used to be printed only after the input loop hit
  // EOF, so an interactive client never saw a response. A writer thread
  // now blocks on the head-of-line future and streams each answer (still
  // in input order) the moment it completes. A client that closes the
  // answer stream mid-flight (EPIPE/EOF on stdout, SIGPIPE ignored
  // above) flips the sink to broken: the writer keeps consuming futures
  // so the batcher drains, stops printing, and requests a graceful
  // shutdown of the accept loop.
  bool sink_broken = false;
  std::thread writer([&] {
    for (;;) {
      OutputSlot slot;
      {
        std::unique_lock<std::mutex> lock(output_mu);
        output_cv.wait(lock,
                       [&] { return input_done || !output_queue.empty(); });
        if (output_queue.empty()) return;  // input done and drained
        slot = std::move(output_queue.front());
        output_queue.pop_front();
      }
      if (!slot.error.empty()) {
        if (!sink_broken) {
          std::printf("%s\n", slot.error.c_str());
          std::fflush(stdout);
        }
      } else {
        Result<Tensor> result = slot.future.get();
        if (sink_broken) continue;  // drain without printing
        if (!result.ok()) {
          std::printf("error: %s\n", result.status().ToString().c_str());
        } else {
          const Tensor& pred = result.value();
          const float* p = pred.data();
          for (int64_t j = 0; j < pred.numel(); ++j) {
            std::printf(j == 0 ? "%g" : ",%g", p[j]);
          }
          std::printf("\n");
        }
        std::fflush(stdout);
      }
      if (!sink_broken && std::ferror(stdout)) {
        sink_broken = true;
        std::fprintf(stderr,
                     "client closed the answer stream (EPIPE); draining "
                     "in-flight requests and shutting down\n");
        RequestInterrupt();
      }
    }
  });
  auto emit = [&](OutputSlot slot) {
    {
      std::lock_guard<std::mutex> lock(output_mu);
      output_queue.push_back(std::move(slot));
    }
    output_cv.notify_one();
  };
  auto emit_error = [&](std::string message) {
    OutputSlot slot;
    slot.error = std::move(message);
    emit(std::move(slot));
  };

  // SIGHUP can arrive while getline below is blocked on an idle stdin,
  // so a small poller services the flag instead of the read loop.
  std::mutex stats_mu;
  std::condition_variable stats_cv;
  bool stats_stop = false;
  std::thread stats_poller([&] {
    std::unique_lock<std::mutex> lock(stats_mu);
    while (!stats_stop) {
      stats_cv.wait_for(lock, std::chrono::milliseconds(100),
                        [&] { return stats_stop; });
      if (stats_stop) return;
      if (ConsumeStatsRequest()) PrintRegistryStatus(registry);
    }
  });

  std::string line;
  while (!InterruptRequested() && std::getline(*in, line)) {
    if (line.empty()) continue;
    if (line == "!stats") {
      PrintRegistryStatus(registry);
      continue;
    }
    if (line == "!health") {
      // Health rides the answer queue so it lands in stream order: a
      // scripted client sees it after the answers to everything it
      // already sent.
      emit_error(FormatHealthLines(registry));
      continue;
    }
    std::string model_name;
    std::string csv;
    if (!SplitModelPrefix(line, &model_name, &csv)) {
      emit_error("error: empty model name before '|'");
      continue;
    }
    if (model_name.empty()) {
      if (multi) {
        emit_error("error: " + std::to_string(registry.size()) +
                   " models are loaded; prefix the request with '<model>|'");
        continue;
      }
      model_name = loads.front().first;
    }
    std::shared_ptr<serve::ServingModel> model = registry.Find(model_name);
    if (model == nullptr) {
      emit_error("error: no model named '" + model_name + "' (see --load)");
      continue;
    }
    const int64_t input_len = model->session()->input_len();
    const int64_t channels = model->session()->channels();
    std::vector<float> values;
    std::string parse_error;
    if (!ParseRequestValues(csv, input_len * channels, &values,
                            &parse_error)) {
      emit_error(std::move(parse_error));
      continue;
    }
    // Bugfix: a --requests file longer than the queue capacity used to
    // overrun the bounded queue and surface backpressure as spurious
    // Unavailable answers; kBlock applies flow control at the producer
    // instead.
    OutputSlot slot;
    slot.future = registry.Submit(
        model_name, Tensor({input_len, channels}, std::move(values)),
        request_deadline, serve::SubmitMode::kBlock);
    emit(std::move(slot));
  }

  if (InterruptRequested()) {
    size_t in_flight = 0;
    {
      std::lock_guard<std::mutex> lock(output_mu);
      in_flight = output_queue.size();
    }
    std::fprintf(stderr,
                 "shutdown requested; draining %lld in-flight request(s)\n",
                 static_cast<long long>(in_flight));
  }

  {
    std::lock_guard<std::mutex> lock(output_mu);
    input_done = true;
  }
  output_cv.notify_all();
  writer.join();
  {
    std::lock_guard<std::mutex> lock(stats_mu);
    stats_stop = true;
  }
  stats_cv.notify_all();
  stats_poller.join();

  registry.Shutdown();
  for (const serve::ModelInfo& m : registry.Models()) {
    std::fprintf(
        stderr,
        "model '%s': served %lld requests in %lld batches (p50 %.3f ms, "
        "p99 %.3f ms, p99.9 %.3f ms, %lld rejected, %lld expired, "
        "%lld shed, %lld nonfinite, %lld breaker trip(s), "
        "%lld reload(s), %lld failed reload(s))\n",
        m.name.c_str(), static_cast<long long>(m.batcher.completed),
        static_cast<long long>(m.batcher.batches),
        m.batcher.p50_latency_seconds * 1e3,
        m.batcher.p99_latency_seconds * 1e3,
        m.batcher.p999_latency_seconds * 1e3,
        static_cast<long long>(m.batcher.rejected_full),
        static_cast<long long>(m.batcher.expired),
        static_cast<long long>(m.batcher.shed_overload),
        static_cast<long long>(m.batcher.nonfinite_answers),
        static_cast<long long>(m.batcher.breaker.trips),
        static_cast<long long>(m.reloads),
        static_cast<long long>(m.reload_failures));
  }
  for (const auto& [name, path] : loads) {
    (void)path;
    std::shared_ptr<serve::ServingModel> model = registry.Find(name);
    if (model != nullptr) {
      PrintPlanSummary(name, *model->session()->PlanForBatch(1));
    }
  }
  return 0;
}

namespace {
int Usage() {
  std::fprintf(stderr,
               "usage: lipformer_cli <list|train|forecast|serve> "
               "[--options]\n"
               "see the header of src/cli/cli.cc for options\n");
  return 2;
}
}  // namespace

int Main(int argc, char** argv) {
  CliArgs args = Parse(argc, argv);
  const Status valid = ValidateArgs(args);
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.message().c_str());
    return Usage();
  }
  if (args.Has("threads")) {
    int threads;
    if (!ParseNumThreads(args.Get("threads", ""), &threads)) {
      std::fprintf(stderr,
                   "error: --threads must be an integer in [1, %d]\n",
                   std::numeric_limits<int>::max());
      return 2;
    }
    SetNumThreads(threads);
  }
  if (args.command == "list") return CmdList();
  if (args.command == "train") return CmdTrain(args);
  if (args.command == "forecast") return CmdForecast(args);
  if (args.command == "serve") return CmdServe(args);
  return Usage();
}

}  // namespace cli
}  // namespace lipformer
