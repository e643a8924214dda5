#include "common/metrics.h"

namespace orchestra {

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

Counter& MetricsRegistry::GetCounter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

std::map<std::string, int64_t> MetricsRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, int64_t> values;
  for (const auto& [name, counter] : counters_) {
    values.emplace(name, counter->value());
  }
  return values;
}

std::map<std::string, int64_t> CounterDeltas(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after) {
  std::map<std::string, int64_t> deltas;
  for (const auto& [name, value] : after) {
    auto it = before.find(name);
    const int64_t delta = value - (it == before.end() ? 0 : it->second);
    if (delta != 0) deltas.emplace(name, delta);
  }
  return deltas;
}

}  // namespace orchestra
