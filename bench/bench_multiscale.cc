// Extension bench: the multi-scale patching variant (LiPFormer-MS) vs the
// fixed-patch model across datasets with different native periodicities.
// Checks the future-work hypothesis that learning the patch scale removes
// the need to tune pl per dataset, and reports the learned scale weights.

#include <cstdio>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"
#include "core/multi_scale.h"

using namespace lipformer;  // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseBenchArgs(argc, argv);
  const int64_t horizon = env.full ? 96 : 48;

  TablePrinter table({"Dataset", "Model", "MSE", "MAE", "Params",
                      "ScaleWeights"});
  for (const std::string dataset : {"etth1", "ettm1", "weather"}) {
    DatasetSpec spec = MakeDataset(dataset, env.data_scale);

    RunResult fixed = RunLiPFormer(spec, env, horizon,
                                   /*use_covariates=*/false);
    table.AddRow({dataset, "LiPFormer(pl=" + std::to_string(env.patch_len)
                               + ")",
                  FmtFloat(fixed.test.mse), FmtFloat(fixed.test.mae),
                  FormatCount(static_cast<double>(
                      fixed.profile.parameters)),
                  "-"});

    WindowDataset data = MakeWindows(spec, env, horizon);
    MultiScaleConfig config;
    config.input_len = env.input_len;
    config.pred_len = horizon;
    config.channels = data.channels();
    config.patch_lens = {};
    for (int64_t pl : {8, 12, 24, 48}) {
      if (env.input_len % pl == 0) config.patch_lens.push_back(pl);
    }
    config.hidden_dim = env.hidden_dim;
    MultiScaleLiPFormer model(config);
    TrainResult train = TrainAndEvaluate(&model, data,
                                         MakeTrainConfig(env));
    ModelProfile profile = ProfileModel(&model, data, env.batch_size);

    std::string weights;
    const std::vector<float> w = model.ScaleWeights();
    for (size_t i = 0; i < w.size(); ++i) {
      if (i) weights += " ";
      weights += "pl" + std::to_string(config.patch_lens[i]) + ":" +
                 FmtFloat(w[i], 2);
    }
    table.AddRow({dataset, "LiPFormer-MS", FmtFloat(train.test.mse),
                  FmtFloat(train.test.mae),
                  FormatCount(static_cast<double>(profile.parameters)),
                  weights});
    std::fprintf(stderr, "[multiscale] %s done\n", dataset.c_str());
  }
  table.Print("Extension: multi-scale patching (LiPFormer-MS)");
  (void)table.WriteCsv(ResultsPath(env, "multiscale_extension"));
  return 0;
}
