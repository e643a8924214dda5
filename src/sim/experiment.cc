#include "sim/experiment.h"

#include <cmath>
#include <cstdio>

namespace orchestra::sim {

std::string TrialStats::ToString() const {
  return Fmt(mean) + " ± " + Fmt(ci95);
}

TrialStats Summarize(const std::vector<double>& samples) {
  TrialStats stats;
  if (samples.empty()) return stats;
  double sum = 0;
  for (double s : samples) sum += s;
  stats.mean = sum / static_cast<double>(samples.size());
  if (samples.size() < 2) return stats;
  double var = 0;
  for (double s : samples) var += (s - stats.mean) * (s - stats.mean);
  var /= static_cast<double>(samples.size() - 1);
  const double sem = std::sqrt(var / static_cast<double>(samples.size()));
  stats.ci95 = 1.96 * sem;
  return stats;
}

Result<AggregateResult> RunTrials(const CdssConfig& config, size_t trials) {
  std::vector<double> ratio, local_avg, store_avg, local_pp, store_pp,
      wire_avg, wire_pp;
  AggregateResult agg;
  for (size_t t = 0; t < trials; ++t) {
    CdssConfig trial_config = config;
    trial_config.seed = config.seed + 7919 * (t + 1);
    ORCH_ASSIGN_OR_RETURN(std::unique_ptr<Cdss> cdss,
                          Cdss::Make(trial_config));
    ORCH_ASSIGN_OR_RETURN(CdssResult result, cdss->Run());
    ratio.push_back(result.state_ratio);
    local_avg.push_back(result.avg_local_micros);
    store_avg.push_back(result.avg_store_micros);
    local_pp.push_back(result.total_local_micros_per_peer);
    store_pp.push_back(result.total_store_micros_per_peer);
    wire_avg.push_back(result.avg_store_wire_micros);
    wire_pp.push_back(result.total_store_wire_micros_per_peer);
    agg.deferred += static_cast<double>(result.deferred);
    agg.rejected += static_cast<double>(result.rejected);
    agg.accepted += static_cast<double>(result.accepted);
    agg.messages += static_cast<double>(result.messages);
  }
  const double n = static_cast<double>(trials);
  agg.deferred /= n;
  agg.rejected /= n;
  agg.accepted /= n;
  agg.messages /= n;
  agg.state_ratio = Summarize(ratio);
  agg.avg_local_micros = Summarize(local_avg);
  agg.avg_store_micros = Summarize(store_avg);
  agg.total_local_micros_pp = Summarize(local_pp);
  agg.total_store_micros_pp = Summarize(store_pp);
  agg.avg_store_wire_micros = Summarize(wire_avg);
  agg.total_store_wire_micros_pp = Summarize(wire_pp);
  return agg;
}

TablePrinter::TablePrinter(std::vector<std::string> headers) {
  widths_.reserve(headers.size());
  for (const std::string& h : headers) {
    widths_.push_back(std::max<size_t>(h.size() + 2, 14));
  }
  Row(headers);
  std::string rule;
  for (size_t w : widths_) rule += std::string(w, '-');
  std::printf("%s\n", rule.c_str());
}

void TablePrinter::Row(const std::vector<std::string>& cells) {
  std::string line;
  for (size_t i = 0; i < cells.size(); ++i) {
    const size_t width = i < widths_.size() ? widths_[i] : 14;
    std::string cell = cells[i];
    // Pad to the column width, keeping at least two spaces between
    // columns even when a cell overflows.
    cell += std::string(
        cell.size() < width ? width - cell.size() : 2, ' ');
    line += cell;
  }
  std::printf("%s\n", line.c_str());
}

std::string Fmt(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

}  // namespace orchestra::sim
