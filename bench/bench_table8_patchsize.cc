// Table VIII: impact of the patch length pl on LiPFormer accuracy over the
// ETT datasets. Reproduced claim: accuracy is stable across patch lengths
// (the Cross-Patch mixing compensates for the fixed patch scale), with the
// larger patch a reasonable default.

#include <cstdio>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"

using namespace lipformer;  // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseBenchArgs(argc, argv);
  const std::vector<int64_t> patch_lens =
      env.full ? std::vector<int64_t>{6, 12, 24, 48}
               : std::vector<int64_t>{6, 12, 24, 48};
  const int64_t horizon = env.full ? 96 : 48;

  TablePrinter table({"Dataset", "pl", "MSE", "MAE"});
  for (const std::string dataset : {"etth1", "etth2", "ettm1", "ettm2"}) {
    DatasetSpec spec = MakeDataset(dataset, env.data_scale);
    for (int64_t pl : patch_lens) {
      if (env.input_len % pl != 0) continue;
      LiPFormerConfig config;
      config.hidden_dim = env.hidden_dim;
      config.patch_len = pl;
      RunResult r = RunLiPFormer(spec, env, horizon,
                                 /*use_covariates=*/false, &config);
      table.AddRow({dataset, std::to_string(pl), FmtFloat(r.test.mse),
                    FmtFloat(r.test.mae)});
      std::fprintf(stderr, "[table8] %s pl=%lld mse=%.3f\n", dataset.c_str(),
                   static_cast<long long>(pl), r.test.mse);
    }
  }
  table.Print("Table VIII: patch length sweep (L=" + std::to_string(horizon)
              + ")");
  (void)table.WriteCsv(ResultsPath(env, "table8_patchsize"));
  return 0;
}
