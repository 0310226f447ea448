// Table XII: transplanting the (frozen, pre-trained) Covariate Encoder
// onto Informer, Transformer and Autoformer on the Electri-Price stand-in.
// Reproduced claim: every backbone improves with the plug-in encoder.

#include <cstdio>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"
#include "core/covariate_augmented.h"

using namespace lipformer;  // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseBenchArgs(argc, argv);
  const std::vector<int64_t> horizons =
      env.full ? std::vector<int64_t>{96, 192}
               : std::vector<int64_t>{24, 48};
  DatasetSpec spec = MakeDataset("electri_price", env.data_scale);

  TablePrinter table({"Model", "L", "MSE(+enc)", "MAE(+enc)", "MSE(base)",
                      "MAE(base)"});
  for (const std::string base_name :
       {"informer", "transformer", "autoformer"}) {
    for (int64_t horizon : horizons) {
      WindowDataset data = MakeWindows(spec, env, horizon);
      ForecasterDims dims{env.input_len, horizon, data.channels()};
      ModelOptions options;
      options.hidden_dim = env.hidden_dim;
      options.num_covariates = data.num_numeric_covariates();
      TrainConfig train = MakeTrainConfig(env);

      // Baseline without the encoder.
      auto plain = CreateModel(base_name, dims, options);
      TrainResult base = TrainAndEvaluate(plain.get(), data, train);

      // Pre-train the dual encoder, freeze, wrap a fresh copy of the model.
      Rng rng(options.seed + 99);
      DualEncoder dual(MakeCovariateConfig(data, horizon), data.channels(),
                       rng);
      PretrainConfig pretrain;
      pretrain.epochs = env.pretrain_epochs;
      pretrain.max_batches_per_epoch = env.max_batches_per_epoch;
      PretrainDualEncoder(&dual, data, pretrain);
      dual.SetTraining(false);
      dual.SetRequiresGrad(false);
      CovariateAugmentedForecaster wrapped(
          CreateModel(base_name, dims, options), dual.covariate_encoder());
      TrainResult augmented = TrainAndEvaluate(&wrapped, data, train);

      table.AddRow({base_name, std::to_string(horizon),
                    FmtFloat(augmented.test.mse),
                    FmtFloat(augmented.test.mae), FmtFloat(base.test.mse),
                    FmtFloat(base.test.mae)});
      std::fprintf(stderr, "[table12] %s L=%lld base=%.3f +enc=%.3f\n",
                   base_name.c_str(), static_cast<long long>(horizon),
                   base.test.mse, augmented.test.mse);
    }
  }
  table.Print("Table XII: Covariate Encoder transplanted onto baselines "
              "(Electri-Price)");
  (void)table.WriteCsv(ResultsPath(env, "table12_transplant"));
  return 0;
}
