// Table VII: CPU-only inference time (seconds per inference) of the
// vanilla Transformer vs. LiPFormer while the input length grows, on the
// ETTh1 and Weather stand-ins. This host is CPU-only like the paper's edge
// box, so the quantity is measured directly. Reproduced claims: the
// Transformer's latency grows superlinearly (O(T^2) attention) while
// LiPFormer stays nearly flat, and the gap widens with channel count.
//
// A Threads column sweeps the kernel pool size (1 = the serial baseline)
// so the parallel-backend speedup is measured, not asserted; outputs are
// bitwise identical across thread counts by the ops.h determinism
// contract.

#include <cstdio>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"
#include "common/thread_pool.h"
#include "models/transformer.h"

using namespace lipformer;  // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseBenchArgs(argc, argv);
  const std::vector<int64_t> input_lens =
      env.full ? std::vector<int64_t>{96, 192, 336, 720}
               : std::vector<int64_t>{96, 192, 336};
  const int64_t pred_len = 96;
  const std::vector<int> thread_counts = {1, 2, 4};

  TablePrinter table({"Dataset", "InputLen", "Threads", "Transformer(s)",
                      "LiPFormer(s)", "Speedup"});
  for (const std::string dataset : {"etth1", "weather"}) {
    DatasetSpec spec = MakeDataset(dataset, env.data_scale);
    for (int64_t input_len : input_lens) {
      WindowDataset::Options options;
      options.input_len = input_len;
      options.pred_len = pred_len;
      options.train_ratio = spec.train_ratio;
      options.val_ratio = spec.val_ratio;
      options.test_ratio = spec.test_ratio;
      WindowDataset data(spec.series, options);

      ForecasterDims dims{input_len, pred_len, data.channels()};
      TransformerConfig tconfig;
      VanillaTransformer transformer(dims, tconfig);

      LiPFormerConfig lconfig;
      lconfig.input_len = input_len;
      lconfig.pred_len = pred_len;
      lconfig.channels = data.channels();
      lconfig.patch_len = input_len % 48 == 0 ? 48 : 24;
      lconfig.hidden_dim = env.hidden_dim;
      LiPFormer lip(lconfig);

      for (int threads : thread_counts) {
        SetNumThreads(threads);
        ModelProfile pt = ProfileModel(&transformer, data, /*batch_size=*/8,
                                       /*repeats=*/5);
        ModelProfile pl = ProfileModel(&lip, data, 8, 5);
        table.AddRow({dataset, std::to_string(input_len),
                      std::to_string(threads),
                      FmtFloat(pt.seconds_per_inference, 4),
                      FmtFloat(pl.seconds_per_inference, 4),
                      FmtFloat(pt.seconds_per_inference /
                                   pl.seconds_per_inference,
                               1) +
                          "x"});
      }
      std::fprintf(stderr, "[table7] %s T=%lld done\n", dataset.c_str(),
                   static_cast<long long>(input_len));
    }
  }
  SetNumThreads(1);
  table.Print(
      "Table VII: CPU-only inference latency vs input length and threads");
  (void)table.WriteCsv(ResultsPath(env, "table7_edge"));
  return 0;
}
