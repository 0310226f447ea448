// Table XI: ablation of the two patch-wise attentions. Variants: without
// Cross-Patch (linear instead), without Inter-Patch (linear instead),
// neither (classical patching only), and full LiPFormer. Reproduced claim:
// the two mechanisms are complementary; the full model wins consistently.

#include <cstdio>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"

using namespace lipformer;  // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseBenchArgs(argc, argv);

  struct VariantSpec {
    const char* name;
    bool cross;
    bool inter;
  };
  const VariantSpec variants[] = {
      {"WithoutCrossPatch", false, true},
      {"WithoutInterPatch", true, false},
      {"Neither", false, false},
      {"LiPFormer", true, true},
  };

  TablePrinter table({"Variant", "Dataset", "L", "MSE", "MAE"});
  for (const VariantSpec& variant : variants) {
    for (const std::string dataset : {"etth1", "etth2", "ettm1", "ettm2"}) {
      DatasetSpec spec = MakeDataset(dataset, env.data_scale);
      for (int64_t horizon : env.horizons) {
        LiPFormerConfig config;
        config.hidden_dim = env.hidden_dim;
        config.patch_len = env.patch_len;
        config.use_cross_patch = variant.cross;
        config.use_inter_patch = variant.inter;
        RunResult r = RunLiPFormer(spec, env, horizon,
                                   /*use_covariates=*/false, &config);
        table.AddRow({variant.name, dataset, std::to_string(horizon),
                      FmtFloat(r.test.mse), FmtFloat(r.test.mae)});
        std::fprintf(stderr, "[table11] %s %s L=%lld mse=%.3f\n",
                     variant.name, dataset.c_str(),
                     static_cast<long long>(horizon), r.test.mse);
      }
    }
  }
  table.Print("Table XI: patch-wise attention ablation");
  (void)table.WriteCsv(ResultsPath(env, "table11_attention_ablation"));
  return 0;
}
