// Table IX: impact of the input (look-back) length on test MSE across five
// datasets and all seven models. Reproduced claim: LiPFormer improves (or
// stays flat) as more history is provided, and leads on most cells.

#include <cstdio>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"

using namespace lipformer;  // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseBenchArgs(argc, argv);
  const std::vector<int64_t> input_lens =
      env.full ? std::vector<int64_t>{96, 192, 336, 720}
               : std::vector<int64_t>{48, 96, 192};
  const int64_t horizon = env.full ? 96 : 48;
  const std::vector<std::string> models = {"lipformer",    "patchtst",
                                           "dlinear",      "tide",
                                           "itransformer", "fgnn",
                                           "timemixer"};

  TablePrinter table({"Dataset", "InputLen", "Model", "MSE"});
  for (const std::string dataset :
       {"etth1", "etth2", "ettm1", "ettm2", "weather"}) {
    DatasetSpec spec = MakeDataset(dataset, env.data_scale);
    for (int64_t input_len : input_lens) {
      BenchEnv sweep = env;
      sweep.input_len = input_len;
      if (input_len % sweep.patch_len != 0) sweep.patch_len = input_len / 4;
      for (const std::string& model : models) {
        RunResult r =
            model == "lipformer"
                ? RunLiPFormer(spec, sweep, horizon, /*use_covariates=*/true)
                : RunModel(model, spec, sweep, horizon);
        table.AddRow({dataset, std::to_string(input_len), model,
                      FmtFloat(r.test.mse)});
        std::fprintf(stderr, "[table9] %s T=%lld %s mse=%.3f\n",
                     dataset.c_str(), static_cast<long long>(input_len),
                     model.c_str(), r.test.mse);
      }
    }
  }
  table.Print("Table IX: input length sweep (MSE, L=" +
              std::to_string(horizon) + ")");
  (void)table.WriteCsv(ResultsPath(env, "table9_inputlen"));
  return 0;
}
