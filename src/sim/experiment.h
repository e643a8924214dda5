#ifndef ORCHESTRA_SIM_EXPERIMENT_H_
#define ORCHESTRA_SIM_EXPERIMENT_H_

#include <string>
#include <vector>

#include "sim/cdss.h"

namespace orchestra::sim {

/// Mean and half-width of a 95% confidence interval over repeated
/// trials, as reported in every figure of the paper's evaluation.
struct TrialStats {
  double mean = 0;
  double ci95 = 0;

  std::string ToString() const;
};

/// Computes mean and 95% CI (normal approximation, as is standard for
/// the paper's 5-trial setups) from raw samples.
TrialStats Summarize(const std::vector<double>& samples);

/// Aggregate of `trials` runs of one configuration, varying the seed.
struct AggregateResult {
  TrialStats state_ratio;
  TrialStats avg_local_micros;        // per reconciliation
  TrialStats avg_store_micros;        // per reconciliation
  TrialStats total_local_micros_pp;   // per participant over the run
  TrialStats total_store_micros_pp;   // per participant over the run
  // The same two store times under stop-and-wait accounting.
  TrialStats avg_store_wire_micros;
  TrialStats total_store_wire_micros_pp;
  double deferred = 0;
  double rejected = 0;
  double accepted = 0;
  double messages = 0;
};

/// Runs `trials` independent simulations of `config` (seeds derived from
/// config.seed) and aggregates the metrics.
Result<AggregateResult> RunTrials(const CdssConfig& config, size_t trials);

/// Prints an aligned experiment table row-by-row. Usage:
///   TablePrinter t({"Txn size", "State ratio", "95% CI"});
///   t.Row({"1", "1.52", "0.03"});
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers);

  void Row(const std::vector<std::string>& cells);

 private:
  std::vector<size_t> widths_;
};

/// Formats a double with `decimals` places.
std::string Fmt(double value, int decimals = 2);

}  // namespace orchestra::sim

#endif  // ORCHESTRA_SIM_EXPERIMENT_H_
