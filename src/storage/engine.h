#ifndef ORCHESTRA_STORAGE_ENGINE_H_
#define ORCHESTRA_STORAGE_ENGINE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/result.h"
#include "common/status.h"
#include "storage/wal.h"

namespace orchestra::storage {

/// The embedded storage engine backing the centralized update store —
/// our stand-in for the paper's "major commercial RDBMS" (§5.2.1). It
/// provides named ordered key/value tables, named monotonic sequences
/// (the paper's SQL sequence used as the epoch counter), and optional
/// WAL-based durability with crash recovery.
///
/// Tables are ordered by key so that epoch-range scans (the core access
/// pattern of reconciliation-input retrieval) are efficient.
class StorageEngine {
 public:
  /// Pure in-memory engine (no durability); used by benchmarks.
  static std::unique_ptr<StorageEngine> InMemory();

  /// Durable engine logging to `wal_path`; recovers existing state from
  /// the log on open. When `injector` is given it is installed *before*
  /// recovery so replay-time corruption sites (storage.truncate_tail,
  /// storage.bit_flip) can fire during the recovery pass itself.
  static Result<std::unique_ptr<StorageEngine>> OpenDurable(
      std::string wal_path, FaultInjector* injector = nullptr);

  /// Writes `value` under `key` in `table` (upsert).
  Status Put(std::string_view table, std::string_view key,
             std::string_view value);

  /// Value stored under `key`, or NotFound.
  Result<std::string> Get(std::string_view table, std::string_view key) const;

  bool Contains(std::string_view table, std::string_view key) const;

  /// Removes `key`; idempotent (absent keys are fine).
  Status Delete(std::string_view table, std::string_view key);

  /// All (key, value) pairs with key in [lo, hi), in key order. An empty
  /// `hi` means "to the end of the table".
  std::vector<std::pair<std::string, std::string>> ScanRange(
      std::string_view table, std::string_view lo, std::string_view hi) const;

  /// All (key, value) pairs whose key starts with `prefix`, in key order.
  std::vector<std::pair<std::string, std::string>> ScanPrefix(
      std::string_view table, std::string_view prefix) const;

  /// Number of keys in `table`.
  size_t TableSize(std::string_view table) const;

  /// Returns the next value of the named sequence (1, 2, 3, ...). The
  /// allocation is durable before it is returned.
  Result<int64_t> NextSequence(std::string_view name);

  /// Current value of the named sequence without advancing (0 if never
  /// allocated).
  int64_t CurrentSequence(std::string_view name) const;

  /// Forces buffered WAL records to disk (no-op in memory mode).
  Status Sync();

  bool durable() const { return wal_ != nullptr; }

  /// Installs (or clears, with nullptr) a fault injector consulted before
  /// every mutating operation (Put, Delete, NextSequence, Sync). Reads
  /// are never failed: the update stores' consistency obligations concern
  /// what they *wrote*, and read faults only re-exercise the same retry
  /// paths. The injector must outlive the engine or be cleared first.
  void set_fault_injector(FaultInjector* injector) {
    injector_ = injector;
    if (wal_ != nullptr) wal_->set_fault_injector(injector);
  }
  FaultInjector* fault_injector() const { return injector_; }

  /// Accounting from the recovery replay (zero-valued for in-memory
  /// engines). A nonzero skipped_regions means recovered state has a
  /// gap; stores with completeness witnesses (the central store's
  /// decision-log rows, each listing one recording's ids) cross-check
  /// and surface kDataLoss.
  const WriteAheadLog::ReplayStats& replay_stats() const {
    return replay_stats_;
  }

 private:
  StorageEngine() = default;

  Status LogPut(std::string_view table, std::string_view key,
                std::string_view value);
  Status LogDelete(std::string_view table, std::string_view key);
  Status Recover();

  using Table = std::map<std::string, std::string, std::less<>>;
  std::map<std::string, Table, std::less<>> tables_;
  std::map<std::string, int64_t, std::less<>> sequences_;
  std::unique_ptr<WriteAheadLog> wal_;
  WriteAheadLog::ReplayStats replay_stats_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_ENGINE_H_
