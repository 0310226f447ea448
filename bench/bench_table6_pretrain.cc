// Table VI: LiPFormer with vs. without implicit-temporal-feature
// pre-training on the four ETT datasets (no explicit covariates there; the
// weak labels are the Informer-style time features). Reproduced claim:
// attaching the pre-trained dual encoder reduces MSE/MAE.

#include <cstdio>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"

using namespace lipformer;  // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseBenchArgs(argc, argv);
  const int64_t horizon = env.full ? 96 : 48;

  TablePrinter table({"Dataset", "MSE(no pretrain)", "MAE(no pretrain)",
                      "MSE(pretrain)", "MAE(pretrain)", "dMSE%"});
  for (const std::string dataset : {"etth1", "etth2", "ettm1", "ettm2"}) {
    DatasetSpec spec = MakeDataset(dataset, env.data_scale);
    RunResult without =
        RunLiPFormer(spec, env, horizon, /*use_covariates=*/false);
    RunResult with =
        RunLiPFormer(spec, env, horizon, /*use_covariates=*/true);
    const float delta =
        100.0f * (with.test.mse - without.test.mse) / without.test.mse;
    table.AddRow({dataset, FmtFloat(without.test.mse),
                  FmtFloat(without.test.mae), FmtFloat(with.test.mse),
                  FmtFloat(with.test.mae), FmtFloat(delta, 1)});
    std::fprintf(stderr, "[table6] %s done\n", dataset.c_str());
  }
  table.Print(
      "Table VI: implicit temporal-feature pre-training (L=" +
      std::to_string(horizon) + ")");
  (void)table.WriteCsv(ResultsPath(env, "table6_pretrain"));
  return 0;
}
