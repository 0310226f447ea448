#ifndef LIPFORMER_CLI_CLI_H_
#define LIPFORMER_CLI_CLI_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "data/time_series.h"

// Implementation of the lipformer_cli command-line front end, split into a
// library so argument parsing and command dispatch are unit-testable.
// Commands: list, train, forecast, serve (see src/cli/cli.cc header for
// the option reference).

namespace lipformer {
namespace cli {

struct CliArgs {
  std::string command;
  std::map<std::string, std::string> options;
  // Every --key=value occurrence in command-line order, repeats included.
  // `options` keeps only the last occurrence; repeatable options (serve
  // --load) read this via GetAll.
  std::vector<std::pair<std::string, std::string>> ordered;
  // Non-option arguments after the command (previously silently ignored;
  // ValidateArgs rejects them).
  std::vector<std::string> stragglers;

  bool Has(const std::string& key) const { return options.count(key) > 0; }
  std::string Get(const std::string& key, const std::string& def) const;
  // Return def when the key is absent or (defensively) malformed;
  // ValidateArgs has already rejected malformed values on the CLI path.
  int64_t GetInt(const std::string& key, int64_t def) const;
  double GetDouble(const std::string& key, double def) const;
  // All values given for a repeatable option, in command-line order.
  std::vector<std::string> GetAll(const std::string& key) const;
};

// Parses argv into command + --key[=value] options + stragglers.
CliArgs Parse(int argc, char** argv);

// Rejects unknown --options, stray non-option arguments and malformed
// numeric values against the known-option table in cli.cc. Every
// occurrence of a repeated option is checked, not just the last one.
Status ValidateArgs(const CliArgs& args);

// Splits an optional "<model>|" routing prefix off a serve request line:
// "m|1,2" -> ("m", "1,2"); no '|' -> ("", line). Returns false when a
// '|' is present but the prefix is empty.
bool SplitModelPrefix(const std::string& line, std::string* model,
                      std::string* rest);

// Parses the comma-separated numbers of a serve request, expecting
// exactly `expected` of them. On failure the error message reports the
// total field count of the line (not the count at the first bad field)
// and names the first malformed token.
bool ParseRequestValues(const std::string& csv, int64_t expected,
                        std::vector<float>* values, std::string* error);

// Loads the series selected by --csv / --dataset; fills split ratios.
// Returns false (with a message on stderr) on bad input.
bool LoadSeries(const CliArgs& args, TimeSeries* series, double* train_ratio,
                double* val_ratio, double* test_ratio);

int CmdList();
int CmdTrain(const CliArgs& args);
int CmdForecast(const CliArgs& args);
// Batched inference from a serving bundle (--load); answers one request
// per input line without retraining. See the cli.cc header for the
// request protocol.
int CmdServe(const CliArgs& args);

// Dispatches to the command; returns the process exit code.
int Main(int argc, char** argv);

}  // namespace cli
}  // namespace lipformer

#endif  // LIPFORMER_CLI_CLI_H_
