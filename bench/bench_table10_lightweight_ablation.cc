// Table X: ablation of the lightweight architecture -- adding back the
// components LiPFormer removes (FFN, LayerNorm, both) on ETTh1 and ETTm2.
// Reproduced claim: the heavy components do not help (and often hurt)
// while inflating cost; plain LiPFormer is the best or tied.

#include <cstdio>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"

using namespace lipformer;  // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseBenchArgs(argc, argv);

  struct VariantSpec {
    const char* name;
    bool ffn;
    bool ln;
  };
  const VariantSpec variants[] = {
      {"LiPFormer+FFNs", true, false},
      {"LiPFormer+LN", false, true},
      {"LiPFormer+FFNs+LN", true, true},
      {"LiPFormer", false, false},
  };

  TablePrinter table({"Variant", "Dataset", "L", "MSE", "MAE", "Params"});
  for (const VariantSpec& variant : variants) {
    for (const std::string dataset : {"etth1", "ettm2"}) {
      DatasetSpec spec = MakeDataset(dataset, env.data_scale);
      for (int64_t horizon : env.horizons) {
        LiPFormerConfig config;
        config.hidden_dim = env.hidden_dim;
        config.patch_len = env.patch_len;
        config.use_ffn = variant.ffn;
        config.use_layer_norm = variant.ln;
        RunResult r = RunLiPFormer(spec, env, horizon,
                                   /*use_covariates=*/false, &config);
        table.AddRow({variant.name, dataset, std::to_string(horizon),
                      FmtFloat(r.test.mse), FmtFloat(r.test.mae),
                      FormatCount(
                          static_cast<double>(r.profile.parameters))});
        std::fprintf(stderr, "[table10] %s %s L=%lld mse=%.3f\n",
                     variant.name, dataset.c_str(),
                     static_cast<long long>(horizon), r.test.mse);
      }
    }
  }
  table.Print("Table X: lightweight-architecture ablation (FFN / LN)");
  (void)table.WriteCsv(ResultsPath(env, "table10_lightweight_ablation"));
  return 0;
}
