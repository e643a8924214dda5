// Durable provenance: CentralStore::RecordProvenance writes one
// CRC-enveloped row per call into the per-peer "prov:<peer>" table,
// holding the call's records as JSONL and keyed so a prefix scan
// replays them in decision order — also when two calls share a recno.
// The advisory contract under faults: a failed Put never fails the call
// (the decision log stays authoritative), but the drop is counted.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "core/participant.h"
#include "db/serde.h"
#include "net/sim_network.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "store/dht_store.h"
#include "test_util.h"

namespace orchestra::store {
namespace {

using core::Decision;
using core::Participant;
using core::ProvenanceCause;
using core::ProvenanceRecord;
using core::TrustPolicy;
using orchestra::testing::Ins;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::Txn;

ProvenanceRecord MakeRecord(core::ParticipantId peer, int64_t recno,
                            uint64_t seq) {
  ProvenanceRecord rec;
  rec.peer = peer;
  rec.recno = recno;
  rec.epoch = 3;
  rec.txn = core::TransactionId{2, seq};
  rec.priority = 1;
  rec.verdict = Decision::kAccept;
  rec.cause = ProvenanceCause::kCleanAccept;
  return rec;
}

/// The peer's "prov:<peer>" payloads, concatenated in key order.
std::string StoredProvenance(const storage::StorageEngine& engine,
                             core::ParticipantId peer) {
  std::string jsonl;
  for (const auto& [key, value] :
       engine.ScanPrefix("prov:" + std::to_string(peer), "")) {
    auto payload = db::UnwrapEnvelope(value);
    EXPECT_TRUE(payload.ok()) << key << ": " << payload.status().ToString();
    if (payload.ok()) jsonl += *payload;
  }
  return jsonl;
}

class ProvenancePersistTest : public ::testing::Test {
 protected:
  ProvenancePersistTest()
      : engine_(storage::StorageEngine::InMemory()),
        store_(std::make_unique<CentralStore>(engine_.get(), &network_)) {}

  std::unique_ptr<storage::StorageEngine> engine_;
  net::SimNetwork network_;
  std::unique_ptr<CentralStore> store_;
  FaultInjector injector_;
};

TEST_F(ProvenancePersistTest, OneEnvelopedRowPerCall) {
  std::vector<ProvenanceRecord> records;
  for (uint64_t i = 0; i < 3; ++i) records.push_back(MakeRecord(7, 4, i));
  ASSERT_TRUE(store_->RecordProvenance(7, 4, records).ok());

  const auto rows = engine_->ScanPrefix("prov:7", "");
  ASSERT_EQ(rows.size(), 1u);
  auto payload = db::UnwrapEnvelope(rows[0].second);
  ASSERT_TRUE(payload.ok()) << payload.status().ToString();
  EXPECT_EQ(*payload, core::ToJsonLines(records));
}

TEST_F(ProvenancePersistTest, KeysScanInDecisionOrder) {
  // Recnos 2 then 10: zero-padded keys must sort numerically.
  std::vector<ProvenanceRecord> early;
  for (uint64_t i = 0; i < 12; ++i) early.push_back(MakeRecord(5, 2, i));
  const std::vector<ProvenanceRecord> late = {MakeRecord(5, 10, 99)};
  ASSERT_TRUE(store_->RecordProvenance(5, 10, late).ok());
  ASSERT_TRUE(store_->RecordProvenance(5, 2, early).ok());

  EXPECT_EQ(engine_->ScanPrefix("prov:5", "").size(), 2u);
  EXPECT_EQ(StoredProvenance(*engine_, 5),
            core::ToJsonLines(early) + core::ToJsonLines(late));
}

TEST_F(ProvenancePersistTest, EmptyBatchWritesNothing) {
  ASSERT_TRUE(store_->RecordProvenance(3, 1, {}).ok());
  EXPECT_TRUE(engine_->ScanPrefix("prov:3", "").empty());
}

TEST_F(ProvenancePersistTest, PutFailureIsAdvisoryAndCounted) {
  static Counter& drops =
      MetricsRegistry::Global().GetCounter("store.central.provenance_drops");
  const int64_t drops_before = drops.value();

  engine_->set_fault_injector(&injector_);
  FaultInjectorConfig cfg;
  cfg.fail_at_call = 2;  // the second call's one storage.put fails
  cfg.site_prefix = "storage.put";
  injector_.Configure(cfg);

  const std::vector<ProvenanceRecord> kept = {MakeRecord(9, 1, 0)};
  std::vector<ProvenanceRecord> lost;
  for (uint64_t i = 1; i < 5; ++i) lost.push_back(MakeRecord(9, 2, i));
  ASSERT_TRUE(store_->RecordProvenance(9, 1, kept).ok());
  // Advisory: the call reports OK although its whole row was dropped.
  ASSERT_TRUE(store_->RecordProvenance(9, 2, lost).ok());
  EXPECT_EQ(drops.value() - drops_before, 4);
  EXPECT_EQ(StoredProvenance(*engine_, 9), core::ToJsonLines(kept));
}

// Two recordings under one recno — a user resolution, or a recovered
// backlog run, records under the recno of the last fetch — land in two
// rows side by side: neither overwrites the other, and recovery checks
// the decisions of both.
TEST_F(ProvenancePersistTest, RecordingTwiceUnderOneRecnoKeepsBoth) {
  TrustPolicy p1(1);
  TrustPolicy p2(2);
  p2.TrustPeer(1, 1);
  ASSERT_TRUE(store_->RegisterParticipant(1, &p1).ok());
  ASSERT_TRUE(store_->RegisterParticipant(2, &p2).ok());
  const core::Transaction a = Txn(1, 0, {Ins("rat", "p1", "a", 1)});
  const core::Transaction b = Txn(1, 1, {Ins("rat", "p2", "b", 1)});
  ASSERT_TRUE(store_->Publish(1, {a, b}).ok());
  auto fetch = store_->BeginReconciliation(2);
  ASSERT_TRUE(fetch.ok());
  const int64_t recno = fetch->recno;

  const std::vector<ProvenanceRecord> first = {MakeRecord(2, recno, 0),
                                               MakeRecord(2, recno, 1)};
  const std::vector<ProvenanceRecord> second = {MakeRecord(2, recno, 2)};
  ASSERT_TRUE(store_->RecordDecisions(2, recno, {a.id}, {}).ok());
  ASSERT_TRUE(store_->RecordProvenance(2, recno, first).ok());
  ASSERT_TRUE(store_->RecordDecisions(2, recno, {}, {b.id}).ok());
  ASSERT_TRUE(store_->RecordProvenance(2, recno, second).ok());

  EXPECT_EQ(StoredProvenance(*engine_, 2),
            core::ToJsonLines(first) + core::ToJsonLines(second));
  EXPECT_EQ(engine_->ScanPrefix("declog:2", "").size(), 2u);
  auto bundle = store_->FetchRecoveryState(2);
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle->last_decided_recno, recno);
  ASSERT_EQ(bundle->applied.size(), 1u);
  EXPECT_EQ(bundle->applied[0].id, a.id);
  EXPECT_EQ(bundle->rejected, std::vector<core::TransactionId>{b.id});

  // Losing the first recording's point row is caught: the check covers
  // every row under the recno, not only the last one.
  for (const auto& [key, verdict] : engine_->ScanPrefix("dec:2", "")) {
    if (verdict == "A") {
      ASSERT_TRUE(engine_->Delete("dec:2", key).ok());
    }
  }
  auto damaged = store_->FetchRecoveryState(2);
  ASSERT_FALSE(damaged.ok());
  EXPECT_EQ(damaged.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(damaged.status().message().find("lost 1 of 2"), std::string::npos)
      << damaged.status().ToString();
}

// A user resolution records under the recno of the run that deferred
// the conflict, twice: once for the re-run, once for the losers'
// explanations. Every record the participant logged must be durable.
TEST_F(ProvenancePersistTest, ResolveConflictKeepsEveryRecord) {
  const db::Catalog catalog = MakeProteinCatalog();
  std::vector<std::unique_ptr<TrustPolicy>> policies;
  std::vector<std::unique_ptr<Participant>> peers;
  for (core::ParticipantId id = 1; id <= 3; ++id) {
    auto policy = std::make_unique<TrustPolicy>(id);
    for (core::ParticipantId other = 1; other <= 3; ++other) {
      if (other != id) policy->TrustPeer(other, 1);
    }
    ASSERT_TRUE(store_->RegisterParticipant(id, policy.get()).ok());
    peers.push_back(std::make_unique<Participant>(id, &catalog, *policy));
    policies.push_back(std::move(policy));
  }
  // Peers 2 and 3 give one protein different functions at one priority.
  Participant& p2 = *peers[1];
  Participant& p3 = *peers[2];
  ASSERT_TRUE(p2.ExecuteTransaction({Ins("rat", "p1", "two", 2)}).ok());
  ASSERT_TRUE(p2.Publish(store_.get()).ok());
  ASSERT_TRUE(p3.ExecuteTransaction({Ins("rat", "p1", "three", 3)}).ok());
  ASSERT_TRUE(p3.Publish(store_.get()).ok());
  Participant& p1 = *peers[0];
  auto deferred = p1.Reconcile(store_.get());
  ASSERT_TRUE(deferred.ok()) << deferred.status().ToString();
  ASSERT_EQ(p1.deferred_count(), 2u);

  auto resolved = p1.ResolveConflict(store_.get(), 0, 0);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  ASSERT_EQ(p1.provenance_log().size(), 4u);
  EXPECT_EQ(StoredProvenance(*engine_, 1),
            core::ToJsonLines(p1.provenance_log()));
}

TEST_F(ProvenancePersistTest, DhtKeepsANodeLocalLog) {
  DhtStore dht(8, &network_);
  std::vector<ProvenanceRecord> records = {MakeRecord(4, 1, 0),
                                           MakeRecord(4, 1, 1)};
  ASSERT_TRUE(dht.RecordProvenance(4, 1, records).ok());
  ASSERT_TRUE(dht.RecordProvenance(4, 2, {MakeRecord(4, 2, 2)}).ok());
  const auto& log = dht.provenance_log(4);
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(core::ToJsonLines(log),
            records[0].ToJson() + "\n" + records[1].ToJson() + "\n" +
                MakeRecord(4, 2, 2).ToJson() + "\n");
  EXPECT_TRUE(dht.provenance_log(1).empty());
}

}  // namespace
}  // namespace orchestra::store
