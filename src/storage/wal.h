#ifndef ORCHESTRA_STORAGE_WAL_H_
#define ORCHESTRA_STORAGE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/fault_injector.h"
#include "common/result.h"
#include "common/status.h"

namespace orchestra::storage {

/// Append-only write-ahead log.
///
/// Format: an 8-byte file header ("ORCWAL03") followed by one integrity
/// envelope (db::WrapEnvelope) per record, whose payload is
/// [type:1 byte][record payload]. Recovery semantics:
///   - a torn tail (final record cut short) is truncated at the last
///     valid record, as before;
///   - a corrupted record *mid-log* is skipped by scanning forward to
///     the next envelope magic, with the skip counted in ReplayStats —
///     replay itself stays available, and callers that cannot tolerate
///     a gap (e.g. the central store's check of its decision-log rows
///     against the decision rows) turn the gap into a typed kDataLoss.
class WriteAheadLog {
 public:
  /// Outcome accounting for one Replay pass.
  struct ReplayStats {
    int64_t records = 0;             // records delivered to the visitor
    int64_t skipped_regions = 0;     // corrupted mid-log stretches skipped
    int64_t skipped_bytes = 0;       // bytes inside those stretches
    int64_t dropped_tail_bytes = 0;  // torn tail truncated at replay
  };

  /// Opens (creating if needed) the log at `path` for appending. A new
  /// file is stamped with the header, and so is a file holding a strict
  /// prefix of it (a crash tore the header write, so no record can have
  /// followed). A log stamped with another version of the header
  /// ("ORCWAL02") holds rows in a format this build does not read:
  /// kNotSupported, naming that version, and nothing is replayed. Any
  /// other non-empty file without the header was not written by this
  /// log: kCorruption.
  static Result<std::unique_ptr<WriteAheadLog>> Open(std::string path);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends one record. Buffered; call Sync to force it to disk.
  Status Append(uint8_t type, std::string_view payload);

  /// Flushes buffered appends and fsyncs the file.
  Status Sync();

  /// Replays every valid record from the start of the file, invoking
  /// `visitor(type, payload)` for each. Stops cleanly at a torn tail;
  /// skips corrupted mid-log records (see ReplayStats).
  Status Replay(
      const std::function<Status(uint8_t, std::string_view)>& visitor) const;

  /// Replay with skip/truncation accounting; `stats` may be null.
  Status ReplayWithStats(
      const std::function<Status(uint8_t, std::string_view)>& visitor,
      ReplayStats* stats) const;

  /// Installs (or clears) a fault injector. Corruption sites:
  ///   storage.torn_write    — a fired Append writes only a strict
  ///                           prefix of the record (the crash tears
  ///                           the physical write);
  ///   storage.truncate_tail — a fired Replay drops tail bytes of the
  ///                           in-memory image before parsing;
  ///   storage.bit_flip      — a fired Replay flips bits in the image
  ///                           (at-rest corruption surfacing at read).
  void set_fault_injector(FaultInjector* injector) { injector_ = injector; }

  const std::string& path() const { return path_; }

 private:
  WriteAheadLog(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  Status ReplayFramed(
      const std::function<Status(uint8_t, std::string_view)>& visitor,
      std::string_view contents, ReplayStats* stats) const;

  std::string path_;
  std::FILE* file_;
  FaultInjector* injector_ = nullptr;
};

}  // namespace orchestra::storage

#endif  // ORCHESTRA_STORAGE_WAL_H_
