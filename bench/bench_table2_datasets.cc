// Reproduces the descriptive tables: Table II (dataset statistics) and
// Table IV (covariate schemas of Electri-Price and Cycle), printed from the
// synthetic dataset registry so the mapping paper-dataset -> stand-in is
// explicit.

#include <cstdio>

#include "bench_util/experiment.h"
#include "bench_util/table_printer.h"

using namespace lipformer;  // NOLINT

int main(int argc, char** argv) {
  BenchEnv env = ParseBenchArgs(argc, argv);

  TablePrinter stats({"Dataset", "Variables(paper)", "Variables(here)",
                      "Timestamps(paper)", "Timestamps(here)", "Split",
                      "Future covariates", "Description"});
  for (const std::string& name : RegisteredDatasetNames()) {
    DatasetSpec spec = MakeDataset(name, env.data_scale);
    char split[16];
    std::snprintf(split, sizeof(split), "%.0f:%.0f:%.0f",
                  spec.train_ratio * 10, spec.val_ratio * 10,
                  spec.test_ratio * 10);
    stats.AddRow({spec.name, std::to_string(spec.paper_variables),
                  std::to_string(spec.series.channels()),
                  std::to_string(spec.paper_timestamps),
                  std::to_string(spec.series.steps()), split,
                  spec.series.has_explicit_covariates() ? "yes" : "implicit",
                  spec.description});
  }
  stats.Print("Table II: dataset statistics (synthetic stand-ins)");
  (void)stats.WriteCsv(ResultsPath(env, "table2_datasets"));

  TablePrinter schema({"Dataset", "Covariate", "Type", "Cardinality"});
  for (const std::string name : {"electri_price", "cycle"}) {
    DatasetSpec spec = MakeDataset(name, 0.05);
    const CovariateSchema& cs = spec.series.covariate_schema;
    for (const std::string& field : cs.numeric_names) {
      schema.AddRow({name, field, "numerical", "-"});
    }
    for (size_t i = 0; i < cs.categorical_names.size(); ++i) {
      schema.AddRow({name, cs.categorical_names[i], "categorical",
                     std::to_string(cs.categorical_cardinalities[i])});
    }
  }
  schema.Print("Table IV: future covariate schemas");
  (void)schema.WriteCsv(ResultsPath(env, "table4_covariates"));
  return 0;
}
