// The decided overlay (core::FetchCache) on both stores: once a peer's
// rejection of X is durably recorded, a later fetch of Y, a dependent of
// X, skips X — the peer holds X and computes Y's extension through it —
// while decisions stay those of the parent protocol. Recovery and
// bootstrap start a new incarnation that holds no rejected bodies, so X
// must travel again; a failed RecordDecisions marks nothing; and the
// network-centric store-side analysis still sees X.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "core/participant.h"
#include "net/sim_network.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "store/dht_store.h"
#include "test_util.h"

namespace orchestra::store {
namespace {

using core::Participant;
using core::ParticipantId;
using core::ProvenanceCause;
using core::ReconcileReport;
using core::TransactionId;
using core::TrustPolicy;
using orchestra::testing::AllStoreKinds;
using orchestra::testing::Ins;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::MakeTestStore;
using orchestra::testing::Mod;
using orchestra::testing::StoreKind;
using orchestra::testing::StoreKindName;

/// Forwards to a real store and keeps the ids the last fetch shipped
/// (and, for a network-centric fetch, the extensions it computed).
class ShipLog : public core::UpdateStore, public core::NetworkCentricStore {
 public:
  explicit ShipLog(core::UpdateStore* inner)
      : inner_(inner), nc_(dynamic_cast<core::NetworkCentricStore*>(inner)) {}

  Status RegisterParticipant(ParticipantId peer,
                             const TrustPolicy* policy) override {
    return inner_->RegisterParticipant(peer, policy);
  }
  Result<core::Epoch> Publish(ParticipantId peer,
                              std::vector<core::Transaction> txns) override {
    return inner_->Publish(peer, std::move(txns));
  }
  Result<core::ReconcileFetch> BeginReconciliation(
      ParticipantId peer) override {
    auto fetch = inner_->BeginReconciliation(peer);
    if (fetch.ok()) Log(*fetch);
    return fetch;
  }
  Status RecordDecisions(ParticipantId peer, int64_t recno,
                         const std::vector<TransactionId>& applied,
                         const std::vector<TransactionId>& rejected) override {
    return inner_->RecordDecisions(peer, recno, applied, rejected);
  }
  Status RecordProvenance(
      ParticipantId peer, int64_t recno,
      const std::vector<core::ProvenanceRecord>& records) override {
    return inner_->RecordProvenance(peer, recno, records);
  }
  Result<core::RecoveryBundle> FetchRecoveryState(
      ParticipantId peer) const override {
    return inner_->FetchRecoveryState(peer);
  }
  Result<core::NetworkCentricFetch> BeginNetworkCentricReconciliation(
      ParticipantId peer) override {
    auto fetch = nc_->BeginNetworkCentricReconciliation(peer);
    if (fetch.ok()) {
      Log(fetch->base);
      for (const core::TrustedTxn& t : fetch->trusted_txns) {
        extensions.push_back(t.extension);
      }
    }
    return fetch;
  }
  Result<core::RecoveryBundle> Bootstrap(ParticipantId new_peer,
                                         ParticipantId source_peer) override {
    return inner_->Bootstrap(new_peer, source_peer);
  }
  core::StoreStats StatsFor(ParticipantId peer) const override {
    return inner_->StatsFor(peer);
  }
  std::string_view name() const override { return inner_->name(); }

  bool Shipped(const TransactionId& id) const {
    return std::find(shipped.begin(), shipped.end(), id) != shipped.end();
  }

  std::vector<TransactionId> shipped;
  std::vector<std::vector<TransactionId>> extensions;

 private:
  void Log(const core::ReconcileFetch& fetch) {
    shipped.clear();
    extensions.clear();
    for (const core::Transaction& txn : fetch.transactions) {
      shipped.push_back(txn.id);
    }
  }

  core::UpdateStore* inner_;
  core::NetworkCentricStore* nc_;
};

/// One confederation: peers 1..3 trust each other at priority 1. Peer 1
/// owns (rat, p1); peer 3 publishes X, a clashing insert of that key,
/// then Y, a revision of X's tuple with X as its antecedent.
struct World {
  explicit World(StoreKind kind, const db::Catalog* catalog)
      : catalog(catalog) {
    auto made = MakeTestStore(kind, &network, 4, &injector, catalog);
    engine = std::move(made.engine);
    inner = std::move(made.store);
    store = std::make_unique<ShipLog>(inner.get());
    for (ParticipantId id = 1; id <= 3; ++id) {
      ORCH_CHECK(store->RegisterParticipant(id, Policy(id)).ok());
      peers.push_back(
          std::make_unique<Participant>(id, catalog, *policies.back()));
    }
  }

  const TrustPolicy* Policy(ParticipantId id) {
    auto policy = std::make_unique<TrustPolicy>(id);
    for (ParticipantId other = 1; other <= 3; ++other) {
      if (other != id) policy->TrustPeer(other, 1);
    }
    policies.push_back(std::move(policy));
    return policies.back().get();
  }
  TrustPolicy PolicyCopy(ParticipantId id) {
    TrustPolicy policy(id);
    for (ParticipantId other = 1; other <= 3; ++other) {
      if (other != id) policy.TrustPeer(other, 1);
    }
    return policy;
  }

  Participant& P(size_t i) { return *peers[i - 1]; }

  void OwnTuple() {
    ORCH_CHECK(P(1).ExecuteTransaction({Ins("rat", "p1", "own", 1)}).ok());
    ORCH_CHECK(P(1).PublishAndReconcile(store.get()).ok());
  }
  void PublishX() {
    auto id = P(3).ExecuteTransaction({Ins("rat", "p1", "clash", 3)});
    ORCH_CHECK(id.ok());
    x = *id;
    ORCH_CHECK(P(3).Publish(store.get()).ok());
  }
  void PublishY() {
    auto id = P(3).ExecuteTransaction({Mod("rat", "p1", "clash", "clash2", 3)});
    ORCH_CHECK(id.ok());
    y = *id;
    ORCH_CHECK(P(3).Publish(store.get()).ok());
  }

  const db::Catalog* catalog;
  net::SimNetwork network;
  FaultInjector injector;
  std::unique_ptr<storage::StorageEngine> engine;
  std::unique_ptr<core::UpdateStore> inner;
  std::unique_ptr<ShipLog> store;
  std::vector<std::unique_ptr<TrustPolicy>> policies;
  std::vector<std::unique_ptr<Participant>> peers;
  TransactionId x;
  TransactionId y;
};

/// The cause recorded for `id` in `report`, if any.
std::optional<ProvenanceCause> CauseOf(const ReconcileReport& report,
                                       const TransactionId& id) {
  for (const core::ProvenanceRecord& rec : report.provenance) {
    if (rec.txn == id) return rec.cause;
  }
  return std::nullopt;
}

std::vector<TransactionId> Sorted(const core::TxnIdSet& ids) {
  std::vector<TransactionId> out(ids.begin(), ids.end());
  std::sort(out.begin(), out.end());
  return out;
}

class DecidedOverlayTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  DecidedOverlayTest() : catalog_(MakeProteinCatalog()) {}

  /// Runs the whole schedule on a twin that never crashes: peer 1
  /// rejects X, then fetches Y. Returns the second reconciliation.
  ReconcileReport TwinRejectsXThenFetchesY(World* w) {
    w->OwnTuple();
    w->PublishX();
    auto first = w->P(1).Reconcile(w->store.get());
    ORCH_CHECK(first.ok());
    ORCH_CHECK(first->rejected == std::vector<TransactionId>{w->x});
    w->PublishY();
    auto second = w->P(1).Reconcile(w->store.get());
    ORCH_CHECK(second.ok());
    return *second;
  }

  db::Catalog catalog_;
};

TEST_P(DecidedOverlayTest, RejectedAntecedentIsNotShippedAgain) {
  World w(GetParam(), &catalog_);
  const ReconcileReport report = TwinRejectsXThenFetchesY(&w);
  EXPECT_TRUE(w.store->Shipped(w.y));
  EXPECT_FALSE(w.store->Shipped(w.x));
  // Y's closure walk met X once, in the overlay; nothing else can hit
  // (Y itself is undecided).
  EXPECT_EQ(report.fetch_stats.suppressed_lookups, 1);
  EXPECT_EQ(report.rejected, std::vector<TransactionId>{w.y});
  EXPECT_EQ(CauseOf(report, w.y), ProvenanceCause::kRejectedAntecedent);
}

TEST_P(DecidedOverlayTest, RecoveredPeerGetsTheRejectedAntecedentAgain) {
  World twin(GetParam(), &catalog_);
  const ReconcileReport expected = TwinRejectsXThenFetchesY(&twin);

  World w(GetParam(), &catalog_);
  w.OwnTuple();
  w.PublishX();
  ASSERT_TRUE(w.P(1).Reconcile(w.store.get()).ok());
  // Peer 1 crashes: its new incarnation knows X's rejection by id only.
  auto recovered = Participant::RecoverFromStore(1, &catalog_, w.PolicyCopy(1),
                                                 w.store.get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  w.PublishY();
  auto report = (*recovered)->Reconcile(w.store.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(w.store->Shipped(w.x));
  EXPECT_EQ(report->fetch_stats.suppressed_lookups, 0);
  EXPECT_EQ(report->accepted, expected.accepted);
  EXPECT_EQ(report->rejected, expected.rejected);
  EXPECT_EQ(report->deferred, expected.deferred);
  EXPECT_EQ(CauseOf(*report, w.y), ProvenanceCause::kRejectedAntecedent);
  EXPECT_EQ(Sorted((*recovered)->applied()), Sorted(twin.P(1).applied()));
  EXPECT_EQ(Sorted((*recovered)->rejected()), Sorted(twin.P(1).rejected()));
  EXPECT_TRUE((*recovered)->instance() == twin.P(1).instance());
}

TEST_P(DecidedOverlayTest, BootstrappedPeerGetsTheRejectedAntecedentAgain) {
  World twin(GetParam(), &catalog_);
  World w(GetParam(), &catalog_);
  for (World* world : {&twin, &w}) {
    world->OwnTuple();
    ASSERT_TRUE(world->P(2).Reconcile(world->store.get()).ok());
    world->PublishX();
    ASSERT_TRUE(world->P(1).Reconcile(world->store.get()).ok());
  }
  // Peer 1 starts over from peer 2's state, which predates X: the new
  // incarnation holds no body of X, and does not inherit the rejection.
  auto fresh = Participant::BootstrapFrom(1, &catalog_, w.PolicyCopy(1),
                                          w.store.get(), 2);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  // Its first window holds only X, which the store already counts as
  // decided by peer 1.
  auto catch_up = (*fresh)->Reconcile(w.store.get());
  ASSERT_TRUE(catch_up.ok()) << catch_up.status().ToString();
  EXPECT_EQ(catch_up->fetched, 0u);
  ASSERT_TRUE(twin.P(1).Reconcile(twin.store.get()).ok());

  for (World* world : {&twin, &w}) world->PublishY();
  auto expected = twin.P(1).Reconcile(twin.store.get());
  ASSERT_TRUE(expected.ok());
  auto report = (*fresh)->Reconcile(w.store.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(w.store->Shipped(w.x));
  EXPECT_EQ(report->fetch_stats.suppressed_lookups, 0);
  EXPECT_EQ(report->accepted, expected->accepted);
  EXPECT_EQ(report->rejected, expected->rejected);
  EXPECT_EQ(report->deferred, expected->deferred);
  EXPECT_TRUE((*fresh)->instance() == twin.P(1).instance());
}

TEST_P(DecidedOverlayTest, NetworkCentricAnalysisStillSeesTheHeldBody) {
  World w(GetParam(), &catalog_);
  w.OwnTuple();
  w.PublishX();
  auto first = w.P(1).ReconcileNetworkCentric(w.store.get());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->rejected, std::vector<TransactionId>{w.x});
  w.PublishY();
  auto report = w.P(1).ReconcileNetworkCentric(w.store.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(w.store->Shipped(w.x));
  EXPECT_EQ(report->fetch_stats.suppressed_lookups, 1);
  // The store computed Y's extension through X from its own state.
  ASSERT_EQ(w.store->extensions.size(), 1u);
  EXPECT_EQ(w.store->extensions[0], (std::vector<TransactionId>{w.x, w.y}));
  EXPECT_EQ(report->rejected, std::vector<TransactionId>{w.y});
  EXPECT_EQ(CauseOf(*report, w.y), ProvenanceCause::kRejectedAntecedent);
}

TEST_P(DecidedOverlayTest, FailedRecordDecisionsMarksNothing) {
  // Fail the recording of X's rejection at its commit point: the central
  // store's sync, or the DHT's last recording message (its count comes
  // from a fault-free twin). The DHT sends its completion witness first,
  // beside the puts, so the witness has landed and a put copy is lost:
  // the recording is still incomplete and must mark nothing.
  const bool central = GetParam() == StoreKind::kCentral;
  FaultInjectorConfig counting;
  counting.site_prefix = central ? "storage.sync" : "net.send";
  counting.fail_at_call = int64_t{1} << 40;  // arms the count, never fires
  World twin(GetParam(), &catalog_);
  twin.OwnTuple();
  twin.PublishX();
  twin.injector.Configure(counting);
  ASSERT_TRUE(twin.P(1).Reconcile(twin.store.get()).ok());
  const int64_t last_call = twin.injector.calls();
  ASSERT_GT(last_call, 0);

  World w(GetParam(), &catalog_);
  w.OwnTuple();
  w.PublishX();
  FaultInjectorConfig crash = counting;
  crash.fail_at_call = last_call;
  crash.sticky = true;
  w.injector.Configure(crash);
  auto first = w.P(1).Reconcile(w.store.get());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->rejected, std::vector<TransactionId>{w.x});
  ASSERT_GT(w.injector.injected(), 0);
  w.injector.Configure(FaultInjectorConfig{});  // the outage is over

  w.PublishY();
  auto report = w.P(1).Reconcile(w.store.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(w.store->Shipped(w.x));
  EXPECT_EQ(report->fetch_stats.suppressed_lookups, 0);
  EXPECT_EQ(report->rejected, std::vector<TransactionId>{w.y});
  EXPECT_EQ(CauseOf(*report, w.y), ProvenanceCause::kRejectedAntecedent);
}

INSTANTIATE_TEST_SUITE_P(AllStores, DecidedOverlayTest, AllStoreKinds(),
                         StoreKindName);

}  // namespace
}  // namespace orchestra::store
