#include "storage/wal.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/fault_injector.h"
#include "db/serde.h"

namespace orchestra::storage {
namespace {

class WalTest : public ::testing::Test {
 protected:
  WalTest() {
    path_ = (std::filesystem::temp_directory_path() /
             ("wal_test_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
    std::remove(path_.c_str());
  }
  ~WalTest() override { std::remove(path_.c_str()); }

  std::vector<std::pair<uint8_t, std::string>> ReplayAll() {
    auto wal = WriteAheadLog::Open(path_);
    ORCH_CHECK(wal.ok());
    std::vector<std::pair<uint8_t, std::string>> records;
    auto status = (*wal)->Replay([&](uint8_t type, std::string_view payload) {
      records.emplace_back(type, std::string(payload));
      return Status::OK();
    });
    ORCH_CHECK(status.ok(), "%s", status.ToString().c_str());
    return records;
  }

  std::string path_;
};

TEST_F(WalTest, AppendAndReplay) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "first").ok());
    ASSERT_TRUE((*wal)->Append(2, "second record").ok());
    ASSERT_TRUE((*wal)->Append(1, "").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  auto records = ReplayAll();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[0], (std::pair<uint8_t, std::string>{1, "first"}));
  EXPECT_EQ(records[1],
            (std::pair<uint8_t, std::string>{2, "second record"}));
  EXPECT_EQ(records[2], (std::pair<uint8_t, std::string>{1, ""}));
}

TEST_F(WalTest, ReopenAppends) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "a").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "b").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  EXPECT_EQ(ReplayAll().size(), 2u);
}

TEST_F(WalTest, TornTailIsTolerated) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "complete").ok());
    ASSERT_TRUE((*wal)->Append(2, "will be torn").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Truncate into the middle of the second record.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size - 4);
  auto records = ReplayAll();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].second, "complete");
}

TEST_F(WalTest, MidLogCorruptionIsSkippedWithAccounting) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "first-record-payload").ok());
    ASSERT_TRUE((*wal)->Append(2, "second").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Clobber the first record's envelope magic (offset 8: right after
  // the file header). Replay must resync at the second record and
  // account for the region it skipped — availability with honesty,
  // instead of an all-or-nothing kCorruption.
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 8, SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
  }
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  std::vector<std::pair<uint8_t, std::string>> records;
  WriteAheadLog::ReplayStats stats;
  auto status = (*wal)->ReplayWithStats(
      [&](uint8_t type, std::string_view payload) {
        records.emplace_back(type, std::string(payload));
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (std::pair<uint8_t, std::string>{2, "second"}));
  EXPECT_EQ(stats.records, 1);
  EXPECT_EQ(stats.skipped_regions, 1);
  EXPECT_GT(stats.skipped_bytes, 0);
}

TEST_F(WalTest, CorruptionInsidePayloadIsDetectedAndSkipped) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "aaaaaaaaaaaaaaaaaaaaaaaa").ok());
    ASSERT_TRUE((*wal)->Append(2, "bbbbbbbbbbbbbbbbbbbbbbbb").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  // Flip a byte deep inside the first record's payload: the magic and
  // length survive, so only the checksum can catch this.
  {
    std::FILE* f = std::fopen(path_.c_str(), "rb+");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 24, SEEK_SET);
    std::fputc('X', f);
    std::fclose(f);
  }
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  std::vector<std::string> payloads;
  WriteAheadLog::ReplayStats stats;
  ASSERT_TRUE((*wal)
                  ->ReplayWithStats(
                      [&](uint8_t, std::string_view payload) {
                        payloads.emplace_back(payload);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  // The tampered record must never be delivered; the clean one must.
  ASSERT_EQ(payloads.size(), 1u);
  EXPECT_EQ(payloads[0], "bbbbbbbbbbbbbbbbbbbbbbbb");
  EXPECT_EQ(stats.skipped_regions, 1);
}

TEST_F(WalTest, TornWriteInjectionResyncsAtNextRecord) {
  FaultInjector injector;
  FaultInjectorConfig cfg;
  cfg.corruption_probability = 1.0;
  // Seed chosen so the tear keeps a nonzero prefix of the record (an
  // empty prefix would leave no garbage to resync over).
  cfg.corruption_sites = {"storage.torn_write"};
  cfg.seed = 4;
  injector.Configure(cfg);
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "intact-before").ok());
    (*wal)->set_fault_injector(&injector);  // tears exactly this append
    ASSERT_TRUE((*wal)->Append(2, "torn-in-the-middle").ok());
    (*wal)->set_fault_injector(nullptr);
    ASSERT_TRUE((*wal)->Append(3, "intact-after").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  EXPECT_EQ(injector.corrupted(), 1);
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  std::vector<std::pair<uint8_t, std::string>> records;
  WriteAheadLog::ReplayStats stats;
  ASSERT_TRUE((*wal)
                  ->ReplayWithStats(
                      [&](uint8_t type, std::string_view payload) {
                        records.emplace_back(type, std::string(payload));
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0], (std::pair<uint8_t, std::string>{1, "intact-before"}));
  EXPECT_EQ(records[1], (std::pair<uint8_t, std::string>{3, "intact-after"}));
  EXPECT_EQ(stats.skipped_regions, 1);
}

TEST_F(WalTest, TruncateTailInjectionDeliversPrefix) {
  constexpr int kRecords = 20;
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < kRecords; ++i) {
      ASSERT_TRUE((*wal)->Append(1, "payload-" + std::to_string(i)).ok());
    }
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  FaultInjector injector;
  FaultInjectorConfig cfg;
  cfg.corruption_probability = 1.0;
  cfg.corruption_sites = {"storage.truncate_tail"};
  cfg.seed = 11;
  injector.Configure(cfg);
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  (*wal)->set_fault_injector(&injector);
  std::vector<std::string> payloads;
  WriteAheadLog::ReplayStats stats;
  ASSERT_TRUE((*wal)
                  ->ReplayWithStats(
                      [&](uint8_t, std::string_view payload) {
                        payloads.emplace_back(payload);
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  EXPECT_EQ(injector.corrupted(), 1);
  // Lost sectors at the tail cost the tail records and nothing else:
  // what survives is an exact prefix of what was written.
  ASSERT_LT(payloads.size(), static_cast<size_t>(kRecords));
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(payloads[i], "payload-" + std::to_string(i));
  }
}

void WriteFile(const std::string& path, std::string_view contents) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ORCH_CHECK(f != nullptr);
  ORCH_CHECK(std::fwrite(contents.data(), 1, contents.size(), f) ==
             contents.size());
  std::fclose(f);
}

TEST_F(WalTest, TornHeaderIsRestampedAndKeepsLaterRecords) {
  // A crash tore the header write: only a strict prefix of it landed,
  // and no record can have followed. Open must restamp the header so
  // that what is appended and synced afterwards survives replay.
  WriteFile(path_, "ORC");
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok()) << wal.status().ToString();
    ASSERT_TRUE((*wal)->Append(1, "hello").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  std::vector<std::pair<uint8_t, std::string>> records;
  WriteAheadLog::ReplayStats stats;
  ASSERT_TRUE((*wal)
                  ->ReplayWithStats(
                      [&](uint8_t type, std::string_view payload) {
                        records.emplace_back(type, std::string(payload));
                        return Status::OK();
                      },
                      &stats)
                  .ok());
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (std::pair<uint8_t, std::string>{1, "hello"}));
  EXPECT_EQ(stats.dropped_tail_bytes, 0);
  EXPECT_EQ(stats.skipped_regions, 0);
}

TEST_F(WalTest, OlderFormatIsRefusedNamingItsVersion) {
  // A log written by the previous row format ("ORCWAL02"): its records'
  // envelopes are intact, so only the header tells its rows apart from
  // this build's. Open refuses it before anything can be replayed, and
  // leaves the file as it was.
  std::string contents = "ORCWAL02";
  db::WrapEnvelope(&contents, std::string("\x01an old-format row"));
  WriteFile(path_, contents);
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kNotSupported);
  EXPECT_NE(wal.status().message().find("ORCWAL02"), std::string::npos)
      << wal.status().ToString();
  EXPECT_EQ(std::filesystem::file_size(path_), contents.size())
      << "Open must not write to a refused log";
}

TEST_F(WalTest, HeaderlessFileIsRejectedAtOpen) {
  // A non-empty file that does not start with (a prefix of) the header
  // was not written by this log. Appending to it would bury its bytes
  // in front of our records, so Open refuses it, whatever its length.
  for (std::string_view contents :
       {std::string_view("XY"), std::string_view("ORX"),
        std::string_view("not a write-ahead log at all")}) {
    WriteFile(path_, contents);
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_FALSE(wal.ok()) << contents;
    EXPECT_EQ(wal.status().code(), StatusCode::kCorruption) << contents;
    EXPECT_EQ(std::filesystem::file_size(path_), contents.size())
        << "Open must not write to a rejected file";
  }
}

TEST_F(WalTest, VisitorErrorAborts) {
  {
    auto wal = WriteAheadLog::Open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(1, "x").ok());
    ASSERT_TRUE((*wal)->Sync().ok());
  }
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  auto status = (*wal)->Replay([](uint8_t, std::string_view) {
    return Status::Internal("stop");
  });
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST_F(WalTest, EmptyLogReplaysNothing) {
  auto wal = WriteAheadLog::Open(path_);
  ASSERT_TRUE(wal.ok());
  EXPECT_TRUE(ReplayAll().empty());
}

}  // namespace
}  // namespace orchestra::storage
