// End-to-end integrity in the stores: the DHT's verified group reads
// (failover past corrupt replicas, read-repair, quarantine of repeat
// rot-servers, scrub), the central store's re-read of checksum-failed
// rows, and the typed kDataLoss a damaged decision log surfaces on
// recovery (a lost decision row, or a log row that fails its envelope).
//
// Corruption is injected through the deterministic fault injector; where
// a test needs a *partial* rot pattern (some replicas corrupt, some
// clean), it scans for a seed whose per-call draw sequence matches —
// the draw depends only on (seed, site, call index), so a dry probe
// against a scratch injector reproduces the store's schedule exactly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "core/participant.h"
#include "core/transaction.h"
#include "db/serde.h"
#include "net/sim_network.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "store/dht_store.h"
#include "test_util.h"

namespace orchestra::store {
namespace {

using core::ParticipantId;
using core::Transaction;
using core::TrustPolicy;
using orchestra::testing::Ins;
using orchestra::testing::InstanceHasExactly;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::T;
using orchestra::testing::Txn;

int64_t CounterValue(const std::string& name) {
  return MetricsRegistry::Global().GetCounter(name).value();
}

/// First seed (1..999) whose storage.bit_flip draw sequence at
/// probability `p` matches `pattern` (true = the call corrupts). The
/// fire decision is independent of the buffer, so the probe transfers
/// to the store's install calls one-for-one.
uint64_t FindCorruptionSeed(double p, const std::vector<bool>& pattern) {
  for (uint64_t seed = 1; seed < 1000; ++seed) {
    FaultInjectorConfig cfg;
    cfg.corruption_probability = p;
    cfg.corruption_sites = {"storage.bit_flip"};
    cfg.seed = seed;
    FaultInjector probe(cfg);
    bool match = true;
    for (bool want : pattern) {
      std::string dummy(32, 'x');
      if (probe.MaybeCorrupt("storage.bit_flip", &dummy) != want) {
        match = false;
        break;
      }
    }
    if (match) return seed;
  }
  return 0;
}

class DhtIntegrityTest : public ::testing::Test {
 protected:
  static constexpr size_t kNodes = 10;

  explicit DhtIntegrityTest(DhtStoreOptions opts = {})
      : catalog_(MakeProteinCatalog()) {
    network_.set_fault_injector(&injector_);
    store_ = std::make_unique<DhtStore>(kNodes, &network_, &catalog_, opts);
    for (ParticipantId id = 1; id <= 3; ++id) {
      auto policy = std::make_unique<TrustPolicy>(id);
      for (ParticipantId other = 1; other <= 3; ++other) {
        if (other != id) policy->TrustPeer(other, 1);
      }
      ORCH_CHECK(store_->RegisterParticipant(id, policy.get()).ok());
      policies_.push_back(std::move(policy));
      participants_.push_back(std::make_unique<core::Participant>(
          id, &catalog_, *policies_.back()));
    }
  }

  core::Participant& P(size_t i) { return *participants_[i - 1]; }

  size_t TxnPrimary(const core::TransactionId& id) const {
    return store_->ring().OwnerOf(net::KeyHash("txn:" + id.ToString()));
  }

  void ArmBitFlip(double p, uint64_t seed) {
    FaultInjectorConfig cfg;
    cfg.corruption_probability = p;
    cfg.corruption_sites = {"storage.bit_flip"};
    cfg.seed = seed;
    injector_.Configure(cfg);
  }

  db::Catalog catalog_;
  net::SimNetwork network_;
  FaultInjector injector_;
  std::unique_ptr<DhtStore> store_;
  std::vector<std::unique_ptr<TrustPolicy>> policies_;
  std::vector<std::unique_ptr<core::Participant>> participants_;
};

TEST_F(DhtIntegrityTest, ReadRepairHealsACorruptPrimary) {
  // Rot exactly the primary's copy at install time: the group installs
  // primary-first, so the pattern is {corrupt, clean, clean}.
  const uint64_t seed = FindCorruptionSeed(0.5, {true, false, false});
  ASSERT_NE(seed, 0u);
  ArmBitFlip(0.5, seed);
  auto id = P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(P(1).Publish(store_.get()).ok());
  ASSERT_EQ(injector_.corrupted(), 1);
  injector_.Disable();

  const int64_t detected_before = CounterValue("integrity.corrupt_replica_reads");
  const int64_t repairs_before = CounterValue("integrity.read_repairs");
  auto report = P(2).Reconcile(store_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->accepted.size() + report->deferred.size(), 1u);
  // The first read probed the rotten primary, failed over to a clean
  // backup, and healed the primary in place.
  EXPECT_GE(CounterValue("integrity.corrupt_replica_reads"),
            detected_before + 1);
  EXPECT_GE(CounterValue("integrity.read_repairs"), repairs_before + 1);
  DhtStore::ScrubReport scrub = store_->ScrubReplicas();
  EXPECT_GT(scrub.replicas_checked, 0);
  EXPECT_EQ(scrub.corrupt_found, 0);  // read-repair got there first
  EXPECT_EQ(scrub.unrecoverable, 0);
}

TEST_F(DhtIntegrityTest, RotInsideAValueIsCaughtOnlyByTheChecksum) {
  // Flips that land inside a value string leave the frame and the
  // transaction encoding well-formed: the rotten copy decodes to a
  // different, valid transaction, and only the envelope checksum tells
  // it apart. Find a seed that rots the primary's copy inside the value
  // and leaves both backups clean.
  const std::string function(32, 'f');
  Transaction txn = Txn(1, 0, {Ins("rat", "p1", function.c_str(), 1)},
                        /*antecedents=*/{}, /*epoch=*/1);
  std::string encoded;
  core::EncodeTransaction(&encoded, txn);
  std::string wire;
  db::WrapEnvelope(&wire, encoded);
  const size_t value_at = wire.find(function);
  ASSERT_NE(value_at, std::string::npos);
  uint64_t seed = 0;
  for (uint64_t s = 1; s < 5000 && seed == 0; ++s) {
    FaultInjectorConfig cfg;
    cfg.corruption_probability = 0.5;
    cfg.corruption_sites = {"storage.bit_flip"};
    cfg.seed = s;
    FaultInjector probe(cfg);
    std::string rotten = wire;
    if (!probe.MaybeCorrupt("storage.bit_flip", &rotten)) continue;
    bool inside_value = true;
    for (size_t i = 0; i < wire.size(); ++i) {
      if (rotten[i] != wire[i] &&
          (i < value_at || i >= value_at + function.size())) {
        inside_value = false;
      }
    }
    std::string backup = wire;
    if (inside_value && !probe.MaybeCorrupt("storage.bit_flip", &backup) &&
        !probe.MaybeCorrupt("storage.bit_flip", &backup)) {
      seed = s;
    }
  }
  ASSERT_NE(seed, 0u);
  ArmBitFlip(0.5, seed);
  ASSERT_TRUE(store_->Publish(1, {txn}).ok());
  ASSERT_EQ(injector_.corrupted(), 1);
  injector_.Disable();

  const int64_t detected_before =
      CounterValue("integrity.corrupt_replica_reads");
  const int64_t repairs_before = CounterValue("integrity.read_repairs");
  auto report = P(2).Reconcile(store_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->accepted.size(), 1u);
  // The rotten primary was caught at the store and failed over, so the
  // reader applied the value that was written.
  EXPECT_TRUE(InstanceHasExactly(P(2).instance(),
                                 {T({"rat", "p1", function.c_str()})}));
  EXPECT_EQ(CounterValue("integrity.corrupt_replica_reads"),
            detected_before + 1);
  EXPECT_EQ(CounterValue("integrity.read_repairs"), repairs_before + 1);
}

TEST_F(DhtIntegrityTest, ScrubFindsAndHealsRotBeforeAnyReaderTripsOnIt) {
  // Rot one backup replica (pattern {clean, corrupt, clean}): no read
  // prefers it, so only the scrub can find the rot.
  const uint64_t seed = FindCorruptionSeed(0.5, {false, true, false});
  ASSERT_NE(seed, 0u);
  ArmBitFlip(0.5, seed);
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)}).ok());
  ASSERT_TRUE(P(1).Publish(store_.get()).ok());
  ASSERT_EQ(injector_.corrupted(), 1);
  injector_.Disable();

  DhtStore::ScrubReport scrub = store_->ScrubReplicas();
  EXPECT_GT(scrub.replicas_checked, 0);
  EXPECT_EQ(scrub.corrupt_found, 1);
  EXPECT_EQ(scrub.healed, 1);
  EXPECT_EQ(scrub.unrecoverable, 0);
  // Idempotent: a second pass finds nothing left to heal.
  DhtStore::ScrubReport again = store_->ScrubReplicas();
  EXPECT_EQ(again.corrupt_found, 0);
  EXPECT_EQ(again.healed, 0);

  const int64_t detected_before = CounterValue("integrity.corrupt_replica_reads");
  auto report = P(2).Reconcile(store_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->accepted.size() + report->deferred.size(), 1u);
  EXPECT_EQ(CounterValue("integrity.corrupt_replica_reads"), detected_before);
}

TEST_F(DhtIntegrityTest, EveryReplicaRottenIsTypedDataLoss) {
  // p=1: all three installed copies rot. At-rest rot is persistent, so
  // no failover or retry can recover the transaction.
  ArmBitFlip(1.0, 7);
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)}).ok());
  ASSERT_TRUE(P(1).Publish(store_.get()).ok());
  ASSERT_EQ(injector_.corrupted(), 3);
  injector_.Disable();

  const int64_t unrecoverable_before =
      CounterValue("integrity.unrecoverable_reads");
  auto report = P(2).Reconcile(store_.get());
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kDataLoss)
      << report.status().ToString();
  EXPECT_GE(CounterValue("integrity.unrecoverable_reads"),
            unrecoverable_before + 1);
  DhtStore::ScrubReport scrub = store_->ScrubReplicas();
  EXPECT_EQ(scrub.unrecoverable, 1);
  EXPECT_EQ(scrub.healed, 0);  // nothing verified to heal from
}

class QuarantineTest : public DhtIntegrityTest {
 protected:
  QuarantineTest()
      : DhtIntegrityTest([] {
          DhtStoreOptions opts;
          opts.quarantine_threshold = 1;
          return opts;
        }()) {}
};

TEST_F(QuarantineTest, ServingOneCorruptReplicaQuarantinesTheNode) {
  const uint64_t seed = FindCorruptionSeed(0.5, {true, false, false});
  ASSERT_NE(seed, 0u);
  ArmBitFlip(0.5, seed);
  auto id = P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)});
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(P(1).Publish(store_.get()).ok());
  injector_.Disable();

  const size_t primary = TxnPrimary(*id);
  EXPECT_FALSE(store_->Quarantined(primary));
  auto report = P(2).Reconcile(store_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // The primary served rot once; at threshold 1 it is demoted to the
  // back of every read preference until restart.
  EXPECT_TRUE(store_->Quarantined(primary));
  for (size_t node = 0; node < kNodes; ++node) {
    if (node != primary) {
      EXPECT_FALSE(store_->Quarantined(node));
    }
  }
  // Demotion only reorders probes: the healed data still reads fine.
  auto again = P(3).Reconcile(store_.get());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->accepted.size() + again->deferred.size(), 1u);
}

/// The paths by which a central reconciliation reads a stored row back
/// from the engine. The shipping kDelta store's publish pre-admits the
/// batch to its decoded-transaction arena, so its own fetches never
/// touch the rows these tests corrupt; each path below must.
enum class ColdRead {
  kFullFetch,       // the kFull reference, which bypasses the arena
  kRestartedStore,  // a default store restarted over the engine (cold arena)
  kRecovery,        // FetchRecoveryState's undecided-backlog scan
};

class CentralIntegrityTest : public ::testing::TestWithParam<ColdRead> {
 protected:
  CentralIntegrityTest() : catalog_(MakeProteinCatalog()) {
    engine_ = storage::StorageEngine::InMemory();
    engine_->set_fault_injector(&injector_);
    CentralStoreOptions opts;
    if (GetParam() == ColdRead::kFullFetch) {
      opts.fetch_mode = core::FetchMode::kFull;
    }
    store_ = std::make_unique<CentralStore>(engine_.get(), &network_, opts);
    for (ParticipantId id = 1; id <= 2; ++id) {
      auto policy = std::make_unique<TrustPolicy>(id);
      policy->TrustPeer(id == 1 ? 2 : 1, 1);
      ORCH_CHECK(store_->RegisterParticipant(id, policy.get()).ok());
      policies_.push_back(std::move(policy));
      participants_.push_back(std::make_unique<core::Participant>(
          id, &catalog_, *policies_.back()));
    }
  }

  core::Participant& P(size_t i) { return *participants_[i - 1]; }

  void ArmBitFlip(double p, uint64_t seed) {
    FaultInjectorConfig cfg;
    cfg.corruption_probability = p;
    cfg.corruption_sites = {"storage.bit_flip"};
    cfg.seed = seed;
    injector_.Configure(cfg);
  }

  /// Peer 1 publishes one transaction, and the store is readied so that
  /// ReadBack's first engine access is a read of that row.
  void PublishOne() {
    ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)}).ok());
    ASSERT_TRUE(P(1).Publish(store_.get()).ok());
    if (GetParam() == ColdRead::kRestartedStore) {
      store_ = std::make_unique<CentralStore>(engine_.get(), &network_);
      for (ParticipantId id = 1; id <= 2; ++id) {
        ASSERT_TRUE(
            store_->RegisterParticipant(id, policies_[id - 1].get()).ok());
      }
    } else if (GetParam() == ColdRead::kRecovery) {
      // Peer 2 fetched but crashed before recording its decisions: the
      // row lies inside its watermark, undecided, and recovery re-reads
      // it from the engine (the warm arena only serves applied rows).
      ASSERT_TRUE(store_->BeginReconciliation(2).ok());
    }
  }

  /// Peer 2 reads the published row through the parameter's path;
  /// returns how many transactions it got back.
  Result<size_t> ReadBack() {
    if (GetParam() == ColdRead::kRecovery) {
      ORCH_ASSIGN_OR_RETURN(core::RecoveryBundle bundle,
                            store_->FetchRecoveryState(2));
      return bundle.undecided.size();
    }
    ORCH_ASSIGN_OR_RETURN(core::ReconcileReport report,
                          P(2).Reconcile(store_.get()));
    return report.accepted.size() + report.deferred.size();
  }

  db::Catalog catalog_;
  net::SimNetwork network_;
  FaultInjector injector_;
  std::unique_ptr<storage::StorageEngine> engine_;
  std::unique_ptr<CentralStore> store_;
  std::vector<std::unique_ptr<TrustPolicy>> policies_;
  std::vector<std::unique_ptr<core::Participant>> participants_;
};

TEST_P(CentralIntegrityTest, CorruptRowReadIsDetectedAndReRead) {
  PublishOne();

  // The central store's rot is per read (the re-read models fetching
  // the page from the RDBMS's redundant storage): corrupt the first row
  // read, leave every later draw clean.
  const uint64_t seed = FindCorruptionSeed(
      0.5, {true, false, false, false, false, false, false, false});
  ASSERT_NE(seed, 0u);
  ArmBitFlip(0.5, seed);

  const int64_t detected_before = CounterValue("integrity.corrupt_rows_detected");
  const int64_t rereads_before = CounterValue("integrity.row_rereads");
  auto read = ReadBack();
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, 1u);
  EXPECT_EQ(CounterValue("integrity.corrupt_rows_detected"),
            detected_before + 1);
  EXPECT_EQ(CounterValue("integrity.row_rereads"), rereads_before + 1);
}

TEST_P(CentralIntegrityTest, RowRottenOnEveryReadIsTypedDataLoss) {
  PublishOne();

  ArmBitFlip(1.0, 7);  // every read attempt rots: re-reads exhaust
  auto read = ReadBack();
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kDataLoss)
      << read.status().ToString();

  // Disarming models the rot having been transient: the same read now
  // succeeds — nothing in the store itself was damaged.
  injector_.Disable();
  auto healed = ReadBack();
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(*healed, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    ColdReads, CentralIntegrityTest,
    ::testing::Values(ColdRead::kFullFetch, ColdRead::kRestartedStore,
                      ColdRead::kRecovery),
    [](const auto& info) -> std::string {
      switch (info.param) {
        case ColdRead::kFullFetch:
          return "FullFetch";
        case ColdRead::kRestartedStore:
          return "RestartedStore";
        case ColdRead::kRecovery:
          return "Recovery";
      }
      return "Unknown";
    });

// Replay of a WAL whose corrupt region swallowed a decision row must
// surface typed data loss on recovery, not silently resume from a log
// row that vouches for decisions that no longer exist.
TEST(CentralDeclogIntegrityTest, TruncatedDecisionLogIsTypedDataLoss) {
  db::Catalog catalog = MakeProteinCatalog();
  net::SimNetwork network;
  const std::string wal_path =
      (std::filesystem::temp_directory_path() /
       ("declog_integrity_" + std::to_string(::getpid()) + ".wal"))
          .string();
  std::remove(wal_path.c_str());

  std::vector<std::unique_ptr<TrustPolicy>> policies;
  for (ParticipantId id = 1; id <= 2; ++id) {
    auto policy = std::make_unique<TrustPolicy>(id);
    policy->TrustPeer(id == 1 ? 2 : 1, 1);
    policies.push_back(std::move(policy));
  }

  Transaction a = Txn(1, 0, {Ins("rat", "p1", "a", 1)});
  Transaction b = Txn(1, 1, {Ins("rat", "p2", "b", 1)});
  {
    auto engine = storage::StorageEngine::OpenDurable(wal_path);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    CentralStore store(engine->get(), &network);
    ASSERT_TRUE(store.RegisterParticipant(1, policies[0].get()).ok());
    ASSERT_TRUE(store.RegisterParticipant(2, policies[1].get()).ok());
    ASSERT_TRUE(store.Publish(1, {a, b}).ok());
    auto fetch = store.BeginReconciliation(2);
    ASSERT_TRUE(fetch.ok());
    ASSERT_TRUE(
        store.RecordDecisions(2, fetch->recno, {a.id, b.id}, {}).ok());
    ASSERT_TRUE(store.FetchRecoveryState(2).ok());
  }

  // Flip a bit inside the first dec:2 Put record (a's verdict). Replay
  // detects the broken envelope, skips the region, and resyncs at the
  // next record — a's point row is gone but the declog row (written
  // later, in an intact record) still lists it.
  std::string contents;
  {
    std::ifstream in(wal_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  const size_t at = contents.find("dec:2");
  ASSERT_NE(at, std::string::npos);
  contents[at] ^= 0x01;
  {
    std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  }

  auto engine = storage::StorageEngine::OpenDurable(wal_path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  CentralStore store(engine->get(), &network);
  ASSERT_TRUE(store.RegisterParticipant(1, policies[0].get()).ok());
  ASSERT_TRUE(store.RegisterParticipant(2, policies[1].get()).ok());
  auto bundle = store.FetchRecoveryState(2);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(bundle.status().message().find("lost 1 of 2"),
            std::string::npos)
      << bundle.status().ToString();
  std::remove(wal_path.c_str());
}

// A declog row is the one witness of its recording, so a row whose
// envelope fails cannot vouch for anything: recovery refuses it as
// typed data loss instead of trusting or skipping it.
TEST(CentralDeclogIntegrityTest, DeclogRowWithBrokenEnvelopeIsTypedDataLoss) {
  net::SimNetwork network;
  auto engine = storage::StorageEngine::InMemory();
  CentralStore store(engine.get(), &network);
  TrustPolicy p1(1);
  TrustPolicy p2(2);
  p1.TrustPeer(2, 1);
  p2.TrustPeer(1, 1);
  ASSERT_TRUE(store.RegisterParticipant(1, &p1).ok());
  ASSERT_TRUE(store.RegisterParticipant(2, &p2).ok());
  Transaction a = Txn(1, 0, {Ins("rat", "p1", "a", 1)});
  ASSERT_TRUE(store.Publish(1, {a}).ok());
  auto fetch = store.BeginReconciliation(2);
  ASSERT_TRUE(fetch.ok());
  ASSERT_TRUE(store.RecordDecisions(2, fetch->recno, {a.id}, {}).ok());
  ASSERT_TRUE(store.FetchRecoveryState(2).ok());

  // Rot the last byte of the one row: the payload, not the frame header.
  auto rows = engine->ScanPrefix("declog:2", "");
  ASSERT_EQ(rows.size(), 1u);
  std::string rotten = rows[0].second;
  rotten.back() ^= 0x01;
  ASSERT_TRUE(engine->Put("declog:2", rows[0].first, rotten).ok());

  auto bundle = store.FetchRecoveryState(2);
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), StatusCode::kDataLoss)
      << bundle.status().ToString();
}

}  // namespace
}  // namespace orchestra::store
