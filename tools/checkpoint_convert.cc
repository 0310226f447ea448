// Migrates legacy v1 parameter files (shape-blind flat dumps written by
// Module::SaveParameters before checkpoint v2) to the self-describing v2
// format. The v1 layout stores no names or shapes, so the conversion
// needs the architecture to be spelled out: the model is rebuilt from the
// flags below, the v1 file is loaded into it (flat-size checked, the only
// check v1 admits), and the result is re-saved as v2 — after which every
// future load verifies names and shapes per tensor.
//
//   checkpoint_convert --in=old.bin --out=new.ckpt --model=lipformer
//       --input=96 --horizon=24 --channels=7 [--hidden=64] [--heads=4]
//       [--layers=2] [--patch=48] [--num-covariates=0] [--seed=1]
//       [--bundle]
//
// With --bundle the output is a serving bundle (loadable by
// `lipformer_cli serve --load`) without a scaler: the v1 file never
// carried one, so the session serves in model units.

#include <cstdio>
#include <string>

#include "cli/cli.h"
#include "common/atomic_file.h"
#include "models/factory.h"
#include "serve/session.h"

namespace lipformer {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: checkpoint_convert --in=FILE --out=FILE "
               "--model=NAME --input=N --horizon=N --channels=N\n"
               "    [--hidden=N] [--heads=N] [--layers=N] [--patch=N]\n"
               "    [--num-covariates=N] [--seed=N] [--bundle] [--force]\n"
               "see the header of tools/checkpoint_convert.cc\n");
  return 2;
}

int Run(int argc, char** argv) {
  // Reuse the CLI parser with argv[0] standing in for the command slot.
  cli::CliArgs args = cli::Parse(argc + 1, argv - 1);
  static const char* kKnown[] = {"in",     "out",   "model",  "input",
                                 "horizon", "channels", "hidden", "heads",
                                 "layers", "patch", "num-covariates",
                                 "seed",   "dropout", "bundle", "force"};
  for (const auto& [key, value] : args.options) {
    bool known = false;
    for (const char* k : kKnown) {
      if (key == k) known = true;
    }
    if (!known) {
      std::fprintf(stderr, "error: unknown option --%s\n", key.c_str());
      return Usage();
    }
  }
  if (!args.stragglers.empty()) {
    std::fprintf(stderr, "error: unexpected argument '%s'\n",
                 args.stragglers.front().c_str());
    return Usage();
  }
  for (const char* required : {"in", "out", "model", "input", "horizon",
                               "channels"}) {
    if (!args.Has(required)) {
      std::fprintf(stderr, "error: missing --%s\n", required);
      return Usage();
    }
  }

  // Converting over an existing checkpoint is destructive; require an
  // explicit --force.
  if (!args.Has("force") && PathExists(args.Get("out", ""))) {
    std::fprintf(stderr,
                 "error: --out target '%s' already exists; pass --force to "
                 "overwrite\n",
                 args.Get("out", "").c_str());
    return 1;
  }

  const std::string model_name = args.Get("model", "");
  bool known_model = false;
  for (const std::string& name : RegisteredModelNames()) {
    if (name == model_name) known_model = true;
  }
  if (!known_model) {
    std::fprintf(stderr, "error: unknown model '%s'\n", model_name.c_str());
    return 1;
  }

  ForecasterDims dims;
  dims.input_len = args.GetInt("input", 0);
  dims.pred_len = args.GetInt("horizon", 0);
  dims.channels = args.GetInt("channels", 0);
  if (dims.input_len <= 0 || dims.pred_len <= 0 || dims.channels <= 0) {
    std::fprintf(stderr, "error: --input/--horizon/--channels must be "
                         "positive integers\n");
    return 1;
  }
  ModelOptions options;
  options.hidden_dim = args.GetInt("hidden", options.hidden_dim);
  options.num_heads = args.GetInt("heads", options.num_heads);
  options.num_layers = args.GetInt("layers", options.num_layers);
  options.patch_len = args.GetInt("patch", options.patch_len);
  options.dropout =
      static_cast<float>(args.GetDouble("dropout", options.dropout));
  options.seed = static_cast<uint64_t>(args.GetInt("seed", 1));
  options.num_covariates = args.GetInt("num-covariates", 0);

  std::unique_ptr<Forecaster> model = CreateModel(model_name, dims, options);
  Status st = model->LoadParametersLegacyV1(args.Get("in", ""));
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  if (args.Has("bundle")) {
    st = serve::SaveModelBundle(args.Get("out", ""), model_name, options,
                                *model, StandardScaler());
  } else {
    st = model->SaveParameters(args.Get("out", ""));
  }
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("converted %s (v1, %lld parameters) -> %s (v2%s)\n",
              args.Get("in", "").c_str(),
              static_cast<long long>(model->ParameterCount()),
              args.Get("out", "").c_str(),
              args.Has("bundle") ? " serving bundle, no scaler" : "");
  return 0;
}

}  // namespace
}  // namespace lipformer

int main(int argc, char** argv) { return lipformer::Run(argc, argv); }
