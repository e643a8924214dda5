#ifndef ORCHESTRA_COMMON_METRICS_H_
#define ORCHESTRA_COMMON_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace orchestra {

/// Process-wide named counters. Reconciliation is serial, but the
/// registry is a process-global object with no owning thread: whatever
/// thread runs a store or participant call bumps its counters, and
/// nothing confines callers to one thread. Updates are therefore single
/// relaxed atomic RMWs (exact totals, no ordering imposed on other
/// memory), and the TSan job checks that design under real
/// concurrency. Registration
/// (name lookup) takes a mutex; hot call sites resolve their counter
/// once and cache the reference (typically in a function-local static),
/// after which updates never touch the lock.
///
/// Counter names are dotted lowercase paths grouped by layer
/// ("reconcile.fetched_txns", "store.central.cache_hits",
/// "net.messages", "wal.fsyncs", "retry.attempts"). Names whose value
/// is a wall-time measurement end in "_micros" so downstream tooling
/// (bench JSON diffing) can strip the nondeterministic ones by suffix.

/// Monotonic counter.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Named-counter registry. Counters live as long as the registry
/// (node-stable map storage), so returned references remain valid across
/// concurrent registrations. A process-global instance backs the default
/// instrumentation; tests may build private registries.
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(std::string_view name);

  /// Counter name → value, sorted by name.
  std::map<std::string, int64_t> CounterValues() const;

 private:
  mutable std::mutex mu_;
  // std::map nodes are pointer-stable; unique_ptr keeps the counters
  // immune even to future container changes.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
};

/// Per-name deltas `after - before` over CounterValues() maps, dropping
/// zero deltas: the movement of the registry across a bounded region
/// (one run, one bench sweep).
std::map<std::string, int64_t> CounterDeltas(
    const std::map<std::string, int64_t>& before,
    const std::map<std::string, int64_t>& after);

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_METRICS_H_
