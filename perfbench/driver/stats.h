#ifndef PERFBENCH_DRIVER_STATS_H_
#define PERFBENCH_DRIVER_STATS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace perfbench {

/// A percentile is reported only when at least this many samples lie
/// beyond it, so one outlier cannot decide it.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of quantile `q` (in (0, 1]) among `n` samples:
/// ceil(q * n), clamped to [1, n]. Computed in integer per-mille so that
/// 0.99 * 1000 is exactly 990, not 990.0000000000001 rounded up to 991.
size_t NearestRank(size_t n, double q);

/// Number of samples strictly above the nearest-rank position of `q`.
size_t SamplesBeyond(size_t n, double q);

/// Nearest-rank percentile of `samples`: the smallest sample with at
/// least q * n samples at or below it. nullopt when fewer than
/// kMinSamplesBeyond samples lie beyond that rank (for q = 0.99 that
/// means fewer than 1000 samples), or when `samples` is empty.
std::optional<double> Percentile(std::vector<double> samples, double q);

/// Median of `samples` (nearest rank, q = 0.5; no tail rule).
double Median(std::vector<double> samples);

/// Throughput of the system under test. Only time spent inside the
/// system counts, in the paper's time model: wall time plus the
/// simulated network time the store charged. Generator time and set-up
/// are recorded so their exclusion is explicit, but never enter the rate.
class RateMeter {
 public:
  /// One peer turn: `turn_ns` of wall time, of which `generator_ns` was
  /// spent generating the workload, plus `simulated_ns` of network time
  /// charged during it, completing `completed` operations.
  void AddTurn(int64_t turn_ns, int64_t generator_ns, int64_t simulated_ns,
               int64_t completed);
  /// Set-up (confederation construction plus warm-up rounds).
  void AddSetup(int64_t setup_ns) { setup_ns_ += setup_ns; }
  /// Everything another meter recorded.
  void Add(const RateMeter& other);

  int64_t completed() const { return completed_; }
  int64_t wall_ns() const { return wall_ns_; }
  int64_t simulated_ns() const { return simulated_ns_; }
  int64_t generator_ns() const { return generator_ns_; }
  int64_t setup_ns() const { return setup_ns_; }

  /// Completed operations per second of system time (wall outside the
  /// generator plus simulated); 0 before any.
  double PerSecond() const;
  /// The same over wall time alone.
  double WallPerSecond() const;

 private:
  int64_t completed_ = 0;
  int64_t wall_ns_ = 0;
  int64_t simulated_ns_ = 0;
  int64_t generator_ns_ = 0;
  int64_t setup_ns_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_STATS_H_
