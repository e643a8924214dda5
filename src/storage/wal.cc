#include "storage/wal.h"

#include <cstring>
#include <vector>

#include "common/metrics.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#define ORCH_WAL_HAS_FSYNC 1
#endif

#include "db/serde.h"

namespace orchestra::storage {

namespace {

/// File header stamped on every log before its first record: a fixed
/// prefix and two version digits. Version 03 is the row format of the
/// compact transaction codec (core::EncodeTransaction); a 02 log holds
/// rows that the current decoder would misread.
constexpr char kFileMagic[8] = {'O', 'R', 'C', 'W', 'A', 'L', '0', '3'};
constexpr size_t kVersionOffset = 6;

}  // namespace

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(std::string path) {
  // Peek at the existing file (if any) before the append handle pins us
  // to the end: how much of the header is already on disk.
  size_t present = 0;
  if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
    char head[sizeof(kFileMagic)];
    present = std::fread(head, 1, sizeof(head), probe);
    std::fclose(probe);
    if (present == sizeof(head) &&
        std::memcmp(head, kFileMagic, kVersionOffset) == 0 &&
        std::memcmp(head, kFileMagic, sizeof(head)) != 0) {
      // The checksums cover each record's payload, so the rows of another
      // version would pass the envelope check: refuse the whole log
      // rather than replay them.
      return Status::NotSupported(
          "write-ahead log at " + path + " is format " +
          std::string(head, sizeof(head)) + "; this build reads only " +
          std::string(kFileMagic, sizeof(kFileMagic)));
    }
    if (std::memcmp(head, kFileMagic, present) != 0) {
      return Status::Corruption("not a write-ahead log (no header) at " +
                                path);
    }
  }
  std::FILE* file = std::fopen(path.c_str(), "ab+");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL at " + path);
  }
  // A new file gets the whole header. A file holding a strict prefix of
  // it is a torn header write, which no record can have followed:
  // appending the missing suffix restamps it in place.
  const size_t missing = sizeof(kFileMagic) - present;
  if (missing > 0 &&
      std::fwrite(kFileMagic + present, 1, missing, file) != missing) {
    std::fclose(file);
    return Status::IOError("cannot write WAL header at " + path);
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(std::move(path), file));
}

WriteAheadLog::~WriteAheadLog() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WriteAheadLog::Append(uint8_t type, std::string_view payload) {
  static Counter& appends = MetricsRegistry::Global().GetCounter("wal.appends");
  static Counter& append_bytes =
      MetricsRegistry::Global().GetCounter("wal.append_bytes");
  std::string body;
  body.push_back(static_cast<char>(type));
  body.append(payload);

  std::string record;
  db::WrapEnvelope(&record, body);
  // A torn physical write leaves a strict prefix of the record on disk;
  // nothing after it is parseable, which replay treats as a torn tail.
  if (injector_ != nullptr) {
    injector_->MaybeCorrupt("storage.torn_write", &record);
  }
  if (std::fwrite(record.data(), 1, record.size(), file_) != record.size()) {
    return Status::IOError("short write to WAL " + path_);
  }
  appends.Increment();
  append_bytes.Add(static_cast<int64_t>(record.size()));
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  static Counter& syncs = MetricsRegistry::Global().GetCounter("wal.syncs");
  static Counter& fsyncs = MetricsRegistry::Global().GetCounter("wal.fsyncs");
  syncs.Increment();
  // fflush only moves stdio-buffered bytes into the OS page cache; the
  // durability claim ("decisions survive a crash once Sync returns")
  // additionally needs fsync to push them to stable storage.
  if (std::fflush(file_) != 0) {
    return Status::IOError("fflush failed on WAL " + path_);
  }
#ifdef ORCH_WAL_HAS_FSYNC
  if (fsync(fileno(file_)) != 0) {
    return Status::IOError("fsync failed on WAL " + path_);
  }
  fsyncs.Increment();
#else
  (void)fsyncs;
#endif
  return Status::OK();
}

Status WriteAheadLog::Replay(
    const std::function<Status(uint8_t, std::string_view)>& visitor) const {
  return ReplayWithStats(visitor, nullptr);
}

Status WriteAheadLog::ReplayWithStats(
    const std::function<Status(uint8_t, std::string_view)>& visitor,
    ReplayStats* stats) const {
  std::FILE* file = std::fopen(path_.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL for replay at " + path_);
  }
  std::string contents;
  {
    char buffer[1 << 16];
    size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
      contents.append(buffer, n);
    }
    std::fclose(file);
  }
  if (injector_ != nullptr) {
    // At-rest corruption surfaces at recovery time: a truncated tail
    // (lost sectors) or flipped bits anywhere in the image.
    injector_->MaybeCorrupt("storage.truncate_tail", &contents);
    injector_->MaybeCorrupt("storage.bit_flip", &contents);
  }
  ReplayStats local;
  ReplayStats* s = stats != nullptr ? stats : &local;
  *s = ReplayStats{};
  const Status status = ReplayFramed(visitor, contents, s);
  static Counter& skipped = MetricsRegistry::Global().GetCounter(
      "integrity.wal_records_skipped");
  static Counter& dropped = MetricsRegistry::Global().GetCounter(
      "integrity.wal_tail_dropped_bytes");
  skipped.Add(s->skipped_regions);
  dropped.Add(s->dropped_tail_bytes);
  return status;
}

Status WriteAheadLog::ReplayFramed(
    const std::function<Status(uint8_t, std::string_view)>& visitor,
    std::string_view contents, ReplayStats* stats) const {
  size_t pos = 0;
  if (contents.size() >= sizeof(kFileMagic) &&
      std::memcmp(contents.data(), kFileMagic, sizeof(kFileMagic)) == 0) {
    pos = sizeof(kFileMagic);
  } else if (contents.size() < sizeof(kFileMagic)) {
    // The image ends inside the header (Open restamps a torn header
    // write, so only a truncated replay image gets here): no record
    // survives.
    stats->dropped_tail_bytes += static_cast<int64_t>(contents.size());
    return Status::OK();
  } else {
    return Status::Corruption("WAL header mangled in " + path_);
  }
  // Finds the next plausible frame start at or after `from`. A payload
  // byte string can embed the 3-byte envelope prologue, so a hit is only
  // a *candidate* — a false one fails its checksum and the scan resumes.
  const auto next_frame = [&](size_t from) -> size_t {
    for (size_t i = from; i + 3 <= contents.size(); ++i) {
      if (contents[i] == db::kEnvelopeMagic0 &&
          contents[i + 1] == db::kEnvelopeMagic1 &&
          contents[i + 2] == db::kEnvelopeVersion) {
        return i;
      }
    }
    return contents.size();
  };
  while (pos < contents.size()) {
    const size_t record_start = pos;
    auto body = db::ReadEnvelope(contents, &pos);
    if (body.ok() && !body->empty()) {
      const uint8_t type = static_cast<uint8_t>((*body)[0]);
      ORCH_RETURN_IF_ERROR(visitor(type, body->substr(1)));
      ++stats->records;
      continue;
    }
    // Unparseable (or empty-bodied, which Append never writes) region:
    // either a torn tail or a corrupted record mid-log. If another
    // frame follows, skip to it and account for the gap; otherwise
    // truncate here.
    const size_t resume = next_frame(record_start + 1);
    if (resume >= contents.size()) {
      pos = record_start;
      break;
    }
    ++stats->skipped_regions;
    stats->skipped_bytes += static_cast<int64_t>(resume - record_start);
    pos = resume;
  }
  stats->dropped_tail_bytes +=
      static_cast<int64_t>(contents.size() - pos);
  return Status::OK();
}

}  // namespace orchestra::storage
