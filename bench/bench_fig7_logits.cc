// Figure 7: visualization of the dual-encoder logits matrices. After
// contrastive pre-training we dump (a) the logits of a training batch --
// the diagonal should dominate -- and (b)-(d) logits over *unshuffled*
// validation windows, where periodic stripes appear at the dataset's
// seasonal period. Output: ASCII heatmaps + CSV matrices + quantitative
// stats (diagonal dominance; mean logit by window offset, whose peak
// reveals the period).

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"

using namespace lipformer;  // NOLINT

namespace {

void AsciiHeatmap(const Tensor& logits, const std::string& title) {
  const int64_t b = logits.size(0);
  float lo = logits.data()[0];
  float hi = lo;
  for (int64_t i = 0; i < logits.numel(); ++i) {
    lo = std::min(lo, logits.data()[i]);
    hi = std::max(hi, logits.data()[i]);
  }
  static const char kShades[] = " .:-=+*#%@";
  std::printf("\n--- %s (%.2f .. %.2f) ---\n", title.c_str(), lo, hi);
  for (int64_t i = 0; i < b; ++i) {
    for (int64_t j = 0; j < b; ++j) {
      const float v = (logits.at({i, j}) - lo) / (hi - lo + 1e-9f);
      std::putchar(kShades[static_cast<int>(v * 9.0f)]);
    }
    std::putchar('\n');
  }
}

Status DumpCsv(const Tensor& logits, const std::string& path) {
  TablePrinter printer([&] {
    std::vector<std::string> headers;
    for (int64_t j = 0; j < logits.size(1); ++j) {
      std::string name = "c";
      name += std::to_string(j);
      headers.push_back(std::move(name));
    }
    return headers;
  }());
  for (int64_t i = 0; i < logits.size(0); ++i) {
    std::vector<std::string> row;
    for (int64_t j = 0; j < logits.size(1); ++j) {
      row.push_back(FmtFloat(logits.at({i, j}), 4));
    }
    printer.AddRow(std::move(row));
  }
  return printer.WriteCsv(path);
}

}  // namespace

int main(int argc, char** argv) {
  BenchEnv env = ParseBenchArgs(argc, argv);
  const int64_t horizon = 48;
  const int64_t b = 48;  // heatmap size

  TablePrinter stats({"Dataset", "DiagMean", "OffDiagMean", "PeakOffset(>=8)",
                      "ExpectedPeriod(windows)"});

  struct Case {
    const char* dataset;
    int64_t expected_period;  // in windows (= steps, stride 1)
  };
  // ETTm1 is 15-minute (daily = 96 steps), ETTh2 hourly (24),
  // Electri-Price 15-minute (96).
  const Case cases[] = {
      {"ettm1", 96}, {"etth2", 24}, {"electri_price", 96}};

  for (const Case& c : cases) {
    DatasetSpec spec = MakeDataset(c.dataset, env.data_scale);
    WindowDataset data = MakeWindows(spec, env, horizon);
    Rng rng(5);
    DualEncoder dual(MakeCovariateConfig(data, horizon), data.channels(),
                     rng);
    PretrainConfig pretrain;
    pretrain.epochs = env.pretrain_epochs + 1;
    pretrain.max_batches_per_epoch = env.max_batches_per_epoch;
    PretrainDualEncoder(&dual, data, pretrain);
    dual.SetTraining(false);
    NoGradGuard ng;

    // (a)-style: training batch, shuffled -> diagonal dominance.
    {
      std::vector<int64_t> ids;
      Rng pick(11);
      const int64_t n = data.NumWindows(Split::kTrain);
      for (int64_t i = 0; i < b; ++i) {
        ids.push_back(static_cast<int64_t>(
            pick.UniformInt(static_cast<uint64_t>(n))));
      }
      Tensor logits =
          dual.Logits(data.MakeBatch(Split::kTrain, ids)).value();
      double diag = 0.0, off = 0.0;
      for (int64_t i = 0; i < b; ++i) {
        for (int64_t j = 0; j < b; ++j) {
          (i == j ? diag : off) += logits.at({i, j});
        }
      }
      diag /= b;
      off /= b * (b - 1);
      AsciiHeatmap(logits, std::string(c.dataset) + " train batch logits");
      (void)DumpCsv(logits, ResultsPath(env, std::string("fig7_train_") +
                                                 c.dataset));
      // (b)-(d)-style: consecutive validation windows -> periodic stripes.
      // The stats matrix is wide enough to contain one full period; the
      // ASCII heatmap shows its top-left corner.
      std::vector<int64_t> seq;
      const int64_t limit = std::min<int64_t>(
          data.NumWindows(Split::kVal),
          std::max<int64_t>(b, c.expected_period + 16));
      for (int64_t i = 0; i < limit; ++i) seq.push_back(i);
      Tensor val_logits =
          dual.Logits(data.MakeBatch(Split::kVal, seq)).value();
      Tensor corner = Slice(Slice(val_logits, 0, 0, b), 1, 0, b);
      AsciiHeatmap(corner,
                   std::string(c.dataset) + " unshuffled validation logits");
      (void)DumpCsv(val_logits, ResultsPath(env, std::string("fig7_val_") +
                                                     c.dataset));

      // Mean logit by |i-j| offset: a periodic dataset shows a local peak
      // at the period (if it fits inside the matrix).
      std::vector<double> by_offset(static_cast<size_t>(limit), 0.0);
      std::vector<int64_t> counts(static_cast<size_t>(limit), 0);
      for (int64_t i = 0; i < limit; ++i) {
        for (int64_t j = 0; j < limit; ++j) {
          by_offset[static_cast<size_t>(std::llabs(i - j))] +=
              val_logits.at({i, j});
          counts[static_cast<size_t>(std::llabs(i - j))] += 1;
        }
      }
      for (int64_t off_i = 1; off_i < limit; ++off_i) {
        by_offset[static_cast<size_t>(off_i)] /=
            static_cast<double>(counts[static_cast<size_t>(off_i)]);
      }
      // Search beyond the near-diagonal band (adjacent windows are always
      // similar); the first strong peak marks the period.
      int64_t peak = 8;
      for (int64_t off_i = 8; off_i < limit - 4; ++off_i) {
        if (by_offset[static_cast<size_t>(off_i)] >
            by_offset[static_cast<size_t>(peak)]) {
          peak = off_i;
        }
      }
      stats.AddRow({c.dataset, FmtFloat(diag, 3), FmtFloat(off, 3),
                    std::to_string(peak),
                    std::to_string(c.expected_period)});
    }
    std::fprintf(stderr, "[fig7] %s done\n", c.dataset);
  }
  stats.Print("Figure 7 statistics: alignment and periodicity");
  (void)stats.WriteCsv(ResultsPath(env, "fig7_stats"));
  return 0;
}
