// Durable provenance: CentralStore::RecordProvenance writes one
// CRC-enveloped JSON row per record into the per-peer "prov:<peer>"
// table, keyed so a prefix scan replays them in decision order. The
// advisory contract under faults: a failed Put never fails the call
// (the decision log stays authoritative), but the drop is counted.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "db/serde.h"
#include "net/sim_network.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "store/dht_store.h"

namespace orchestra::store {
namespace {

using core::Decision;
using core::ProvenanceCause;
using core::ProvenanceRecord;

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

TEST_F(ProvenancePersistTest, RowsRoundTripThroughEnvelopes) {
  std::vector<ProvenanceRecord> records;
  for (uint64_t i = 0; i < 3; ++i) records.push_back(MakeRecord(7, 4, i));
  ASSERT_TRUE(store_->RecordProvenance(7, 4, records).ok());

  const auto rows = engine_->ScanPrefix("prov:7", "");
  ASSERT_EQ(rows.size(), 3u);
  for (size_t i = 0; i < rows.size(); ++i) {
    auto payload = db::UnwrapEnvelope(rows[i].second);
    ASSERT_TRUE(payload.ok()) << payload.status().ToString();
    EXPECT_EQ(*payload, records[i].ToJson());
  }
}

TEST_F(ProvenancePersistTest, KeysScanInDecisionOrder) {
  // Recnos 2 then 10: zero-padded keys must sort numerically, and the
  // per-record index must keep within-batch order for >10 records.
  std::vector<ProvenanceRecord> early;
  for (uint64_t i = 0; i < 12; ++i) early.push_back(MakeRecord(5, 2, i));
  ASSERT_TRUE(store_->RecordProvenance(5, 2, early).ok());
  ASSERT_TRUE(
      store_->RecordProvenance(5, 10, {MakeRecord(5, 10, 99)}).ok());

  const auto rows = engine_->ScanPrefix("prov:5", "");
  ASSERT_EQ(rows.size(), 13u);
  std::vector<std::string> payloads;
  for (const auto& [key, value] : rows) {
    auto payload = db::UnwrapEnvelope(value);
    ASSERT_TRUE(payload.ok());
    payloads.emplace_back(*payload);
  }
  for (uint64_t i = 0; i < 12; ++i) {
    EXPECT_EQ(payloads[i], MakeRecord(5, 2, i).ToJson()) << i;
  }
  EXPECT_EQ(payloads[12], MakeRecord(5, 10, 99).ToJson());
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
  cfg.fail_at_call = 2;  // second storage.put in the batch fails
  cfg.site_prefix = "storage.put";
  injector_.Configure(cfg);

  std::vector<ProvenanceRecord> records;
  for (uint64_t i = 0; i < 4; ++i) records.push_back(MakeRecord(9, 1, i));
  // Advisory: the call reports OK even though rows 2..4 were dropped.
  ASSERT_TRUE(store_->RecordProvenance(9, 1, records).ok());
  EXPECT_EQ(drops.value() - drops_before, 3);
  EXPECT_EQ(engine_->ScanPrefix("prov:9", "").size(), 1u);
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
