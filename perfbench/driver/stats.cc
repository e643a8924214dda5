#include "driver/stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

size_t NearestRank(size_t n, double q) {
  if (n == 0) return 0;
  const auto per_mille = static_cast<size_t>(std::llround(q * 1000.0));
  size_t rank = (per_mille * n + 999) / 1000;
  return std::clamp<size_t>(rank, 1, n);
}

size_t SamplesBeyond(size_t n, double q) { return n - NearestRank(n, q); }

std::optional<double> Percentile(std::vector<double> samples, double q) {
  const size_t n = samples.size();
  if (n == 0 || SamplesBeyond(n, q) < kMinSamplesBeyond) return std::nullopt;
  const size_t index = NearestRank(n, q) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const size_t index = NearestRank(samples.size(), 0.5) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

void RateMeter::AddTurn(int64_t turn_ns, int64_t generator_ns,
                        int64_t simulated_ns, int64_t completed) {
  wall_ns_ += turn_ns - generator_ns;
  simulated_ns_ += simulated_ns;
  generator_ns_ += generator_ns;
  completed_ += completed;
}

void RateMeter::Add(const RateMeter& other) {
  completed_ += other.completed_;
  wall_ns_ += other.wall_ns_;
  simulated_ns_ += other.simulated_ns_;
  generator_ns_ += other.generator_ns_;
  setup_ns_ += other.setup_ns_;
}

namespace {
double Rate(int64_t completed, int64_t ns) {
  if (ns <= 0) return 0;
  return static_cast<double>(completed) * 1e9 / static_cast<double>(ns);
}
}  // namespace

double RateMeter::PerSecond() const {
  return Rate(completed_, wall_ns_ + simulated_ns_);
}

double RateMeter::WallPerSecond() const { return Rate(completed_, wall_ns_); }

}  // namespace perfbench
