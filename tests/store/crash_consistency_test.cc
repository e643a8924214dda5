// Crash consistency under injected faults: atomic (stage-then-commit)
// publishing, stuck-epoch reaping, republish of aborted epochs, WAL
// replay after a faulted run, the recno-keyed decision log that lets
// recovery distinguish an interrupted reconciliation, and recovery from
// every crash point of one reconciliation or DHT publish. The failure
// model is the fault injector's: transient faults (one lost call) and
// sticky faults (a crashed process whose cleanup never runs).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <unistd.h>

#include "common/fault_injector.h"
#include "common/trace.h"
#include "common/trace_check.h"
#include "core/participant.h"
#include "net/sim_network.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "store/dht_store.h"
#include "test_util.h"

namespace orchestra::store {
namespace {

using core::Epoch;
using core::Participant;
using core::ParticipantId;
using core::ReconcileRetryOptions;
using core::Transaction;
using core::TransactionId;
using core::TrustPolicy;
using core::TxnIdSet;
using orchestra::testing::AllStoreKinds;
using orchestra::testing::Ins;
using orchestra::testing::InstanceHasExactly;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::MakeTestStore;
using orchestra::testing::StoreKind;
using orchestra::testing::StoreKindName;
using orchestra::testing::T;
using orchestra::testing::Txn;

class CrashConsistencyTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  CrashConsistencyTest() : catalog_(MakeProteinCatalog()) {
    auto [engine, store] = MakeTestStore(GetParam(), &network_, 8, &injector_);
    engine_ = std::move(engine);
    store_ = std::move(store);
    for (ParticipantId id = 1; id <= 3; ++id) {
      auto policy = std::make_unique<TrustPolicy>(id);
      for (ParticipantId other = 1; other <= 3; ++other) {
        if (other != id) policy->TrustPeer(other, 1);
      }
      ORCH_CHECK(store_->RegisterParticipant(id, policy.get()).ok());
      policies_.push_back(std::move(policy));
      participants_.push_back(std::make_unique<Participant>(
          id, &catalog_, *policies_.back()));
    }
  }

  Participant& P(size_t i) { return *participants_[i - 1]; }

  db::Catalog catalog_;
  net::SimNetwork network_;
  FaultInjector injector_;
  std::unique_ptr<storage::StorageEngine> engine_;
  std::unique_ptr<core::UpdateStore> store_;
  std::vector<std::unique_ptr<TrustPolicy>> policies_;
  std::vector<std::unique_ptr<Participant>> participants_;
};

// Satellite regression: a duplicate transaction in the middle of a
// batch must leave no trace. Before stage-then-commit, the central
// store's half-written epoch stayed "open" forever and froze every
// peer's stable watermark; the DHT's epoch went "done" before its
// transactions landed, making later fetches fail with Internal.
TEST_P(CrashConsistencyTest, DuplicateMidBatchLeavesNoTrace) {
  Transaction a = Txn(1, 0, {Ins("rat", "p1", "a", 1)});
  ASSERT_TRUE(store_->Publish(1, {a}).ok());

  Transaction b = Txn(1, 1, {Ins("rat", "p2", "b", 1)});
  Transaction a_dup = Txn(1, 0, {Ins("rat", "p1", "a", 1)});
  // b stages first; the duplicate is detected mid-batch.
  EXPECT_EQ(store_->Publish(1, {b, a_dup}).status().code(),
            StatusCode::kAlreadyExists);

  // The failed batch left nothing behind: b republishes fine, and the
  // watermark passes over the aborted epoch to deliver everything.
  ASSERT_TRUE(store_->Publish(1, {b}).ok());
  auto report = P(2).Reconcile(store_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->accepted.size(), 2u);
  EXPECT_TRUE(InstanceHasExactly(
      P(2).instance(), {T({"rat", "p1", "a"}), T({"rat", "p2", "b"})}));
  auto again = P(2).Reconcile(store_.get());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->fetched, 0u);  // delivered exactly once
}

// A publisher that crashes mid-publish (sticky fault: its abort code
// never runs) leaves a stuck epoch. Reconcilers strike it and reap it
// after the configured number of observations; the watermark then
// passes over it, and the recovered publisher republishes the same
// transactions in a fresh epoch — delivered exactly once, never
// surfacing Internal.
TEST_P(CrashConsistencyTest, StickyCrashMidPublishIsReapedAndRepublishable) {
  // Crash at the third injectable call: in both stores this lands after
  // the epoch has been opened (the central store's first two calls are
  // the epoch sequence and the "open" row; the DHT's begin-epoch message
  // is at latest its second charged send) and before the commit point,
  // so the epoch is left durably stuck.
  FaultInjectorConfig crash;
  crash.fail_at_call = 3;
  crash.sticky = true;
  injector_.Configure(crash);

  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)}).ok());
  auto failed = P(1).Publish(store_.get());
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(injector_.tripped());

  // The crashed publisher is gone; the store itself is healthy again.
  injector_.Disable();

  // Another peer publishes past the stuck epoch.
  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("rat", "p2", "y", 2)}).ok());
  ASSERT_TRUE(P(2).PublishAndReconcile(store_.get()).ok());

  // Peer 3 reconciles repeatedly. Within the reap threshold (default 3
  // observations) the stuck epoch is aborted and peer 2's transaction
  // comes through; no reconciliation ever fails.
  size_t delivered = 0;
  for (int round = 0; round < 4 && delivered == 0; ++round) {
    auto report = P(3).Reconcile(store_.get());
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    delivered += report->accepted.size();
  }
  EXPECT_EQ(delivered, 1u);
  EXPECT_TRUE(InstanceHasExactly(P(3).instance(), {T({"rat", "p2", "y"})}));

  // Peer 1 "recovers": its publish queue survived the failed attempt,
  // and the aborted epoch's residue does not block republication.
  auto republished = P(1).Publish(store_.get());
  ASSERT_TRUE(republished.ok()) << republished.status().ToString();
  auto report = P(3).Reconcile(store_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->accepted.size(), 1u);
  EXPECT_TRUE(InstanceHasExactly(
      P(3).instance(), {T({"rat", "p1", "x"}), T({"rat", "p2", "y"})}));
  auto drained = P(3).Reconcile(store_.get());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->fetched, 0u);  // exactly once, even after the crash
}

// Decisions are recorded keyed by reconciliation number, and the store
// exposes the last fully recorded recno: a recovery bundle whose
// last_decided_recno trails recno pinpoints a participant that crashed
// between fetching and recording. The interrupted window's transaction
// then reaches the peer exactly once on either store: the central store
// advanced its watermark with the fetch and hands it back as undecided
// in the bundle; the DHT advances its watermark only with the recorded
// decisions, so its next fetch walks the window again.
TEST_P(CrashConsistencyTest, LastDecidedRecnoTracksRecordedDecisions) {
  Transaction a = Txn(1, 0, {Ins("rat", "p1", "a", 1)});
  ASSERT_TRUE(store_->Publish(1, {a}).ok());

  auto fetch = store_->BeginReconciliation(2);
  ASSERT_TRUE(fetch.ok());
  ASSERT_EQ(fetch->trusted.size(), 1u);

  // Crash window: fetched but never recorded.
  auto interrupted = store_->FetchRecoveryState(2);
  ASSERT_TRUE(interrupted.ok());
  EXPECT_LT(interrupted->last_decided_recno, fetch->recno);
  auto refetch = store_->BeginReconciliation(2);
  ASSERT_TRUE(refetch.ok());
  EXPECT_EQ(interrupted->undecided.size() + refetch->trusted.size(), 1u);

  ASSERT_TRUE(store_->RecordDecisions(2, refetch->recno, {a.id}, {}).ok());
  auto recorded = store_->FetchRecoveryState(2);
  ASSERT_TRUE(recorded.ok());
  EXPECT_EQ(recorded->last_decided_recno, refetch->recno);
  EXPECT_EQ(recorded->undecided.size(), 0u);
  ASSERT_EQ(recorded->applied.size(), 1u);
  EXPECT_EQ(recorded->applied[0].id, a.id);
  auto drained = store_->BeginReconciliation(2);
  ASSERT_TRUE(drained.ok());
  EXPECT_TRUE(drained->trusted.empty());
}

// The crash window with a deferred backlog. The recovered peer re-runs
// its backlog and records it under the recno of the fetch it never
// recorded. That recording must not consume the window the fetch read,
// which no incarnation decided: the window still reaches the peer, in
// the recovery bundle (central) or in the next fetch (DHT).
TEST_P(CrashConsistencyTest, RecoveredBacklogRunKeepsTheUnrecordedWindow) {
  // Peers 2 and 3 give one protein different functions at the same
  // priority: peer 1 defers both.
  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("rat", "p1", "two", 2)}).ok());
  ASSERT_TRUE(P(2).Publish(store_.get()).ok());
  ASSERT_TRUE(P(3).ExecuteTransaction({Ins("rat", "p1", "three", 3)}).ok());
  ASSERT_TRUE(P(3).Publish(store_.get()).ok());
  auto first = P(1).Reconcile(store_.get());
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->deferred.size(), 2u);

  // A new window, which peer 1 fetches and then crashes.
  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("rat", "p2", "new", 2)}).ok());
  ASSERT_TRUE(P(2).Publish(store_.get()).ok());
  auto fetch = store_->BeginReconciliation(1);
  ASSERT_TRUE(fetch.ok());
  ASSERT_EQ(fetch->trusted.size(), 1u);

  auto recovered = Participant::RecoverFromStore(1, &catalog_, *policies_[0],
                                                 store_.get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  Participant& peer = **recovered;
  auto report = peer.Reconcile(store_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(peer.deferred_count(), 2u);
  EXPECT_TRUE(InstanceHasExactly(peer.instance(), {T({"rat", "p2", "new"})}));
  auto drained = peer.Reconcile(store_.get());
  ASSERT_TRUE(drained.ok());
  EXPECT_EQ(drained->fetched, 0u);  // delivered exactly once
}

INSTANTIATE_TEST_SUITE_P(AllStores, CrashConsistencyTest, AllStoreKinds(),
                         StoreKindName);

// A confederation over the WAL-backed engine runs with transient faults
// absorbed by the retry layer; after a store crash, WAL replay rebuilds
// a store that serves the same state — nothing re-delivered, nothing
// lost, staged residue of failed attempts filtered out.
TEST(WalCrashConsistencyTest, FaultedRunSurvivesWalReplay) {
  db::Catalog catalog = MakeProteinCatalog();
  net::SimNetwork network;
  const std::string wal_path =
      (std::filesystem::temp_directory_path() /
       ("crash_consistency_" + std::to_string(::getpid()) + ".wal"))
          .string();
  std::remove(wal_path.c_str());

  std::vector<std::unique_ptr<TrustPolicy>> policies;
  for (ParticipantId id = 1; id <= 2; ++id) {
    auto policy = std::make_unique<TrustPolicy>(id);
    policy->TrustPeer(id == 1 ? 2 : 1, 1);
    policies.push_back(std::move(policy));
  }
  Participant alice(1, &catalog, *policies[0]);
  Participant bob(2, &catalog, *policies[1]);

  FaultInjector injector;
  FaultInjectorConfig faults;
  faults.failure_probability = 0.05;
  faults.seed = 11;
  ReconcileRetryOptions retry;  // defaults: up to 8 attempts

  {
    auto engine = storage::StorageEngine::OpenDurable(wal_path);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    (*engine)->set_fault_injector(&injector);
    injector.Configure(faults);
    CentralStore store(engine->get(), &network);
    ASSERT_TRUE(store.RegisterParticipant(1, policies[0].get()).ok());
    ASSERT_TRUE(store.RegisterParticipant(2, policies[1].get()).ok());

    for (int round = 0; round < 6; ++round) {
      Participant& p = (round % 2 == 0) ? alice : bob;
      const std::string key = "p" + std::to_string(round);
      ASSERT_TRUE(
          p.ExecuteTransaction({Ins("rat", key.c_str(), "v", p.id())}).ok());
      ASSERT_TRUE(p.PublishWithRetry(&store, retry).ok());
      ASSERT_TRUE(p.ReconcileWithRetry(&store, retry).ok());
    }
    ASSERT_TRUE(alice.ReconcileWithRetry(&store, retry).ok());
    ASSERT_GT(injector.injected(), 0);  // the run was actually faulted
    // Store process dies here; the WAL is all that survives.
  }

  auto engine = storage::StorageEngine::OpenDurable(wal_path);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  CentralStore store(engine->get(), &network);
  ASSERT_TRUE(store.RegisterParticipant(1, policies[0].get()).ok());
  ASSERT_TRUE(store.RegisterParticipant(2, policies[1].get()).ok());

  // Replay reproduced the committed state exactly: both peers are
  // already caught up and nothing is re-delivered.
  auto a = alice.Reconcile(&store);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(a->fetched, 0u);
  auto b = bob.Reconcile(&store);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_EQ(b->fetched, 0u);
  EXPECT_EQ(alice.applied_count(), bob.applied_count());

  // A participant rebuilt from the replayed store matches the original.
  auto recovered = Participant::RecoverFromStore(2, &catalog, *policies[1],
                                                 &store);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->applied_count(), bob.applied_count());
  EXPECT_EQ((*recovered)->instance().TotalTuples(),
            bob.instance().TotalTuples());
  std::remove(wal_path.c_str());
}

/// A WAL-backed central confederation of peers 1..3, each trusting the
/// others at priority 1. Peer 1 has reconciled once, deferring a
/// two-way conflict; a second window then brings it one transaction to
/// accept and one to reject.
struct WalWorld {
  explicit WalWorld(const std::string& tag)
      : catalog(MakeProteinCatalog()),
        wal_path((std::filesystem::temp_directory_path() /
                  ("recording_crash_" + std::to_string(::getpid()) + "_" +
                   tag + ".wal"))
                     .string()) {
    std::remove(wal_path.c_str());
    for (ParticipantId id = 1; id <= 3; ++id) {
      auto policy = std::make_unique<TrustPolicy>(id);
      for (ParticipantId other = 1; other <= 3; ++other) {
        if (other != id) policy->TrustPeer(other, 1);
      }
      peers.push_back(std::make_unique<Participant>(id, &catalog, *policy));
      policies.push_back(std::move(policy));
    }
    OpenStore();
    Publish(2, Ins("rat", "p1", "two", 2));
    Publish(3, Ins("rat", "p1", "three", 3));
    Publish(2, Ins("rat", "p2", "x", 2));
    ORCH_CHECK(P(1).Reconcile(store.get()).ok());
    Publish(2, Ins("rat", "p3", "y", 2));
    Publish(3, Ins("rat", "p2", "other", 3));  // clashes with applied x
  }
  ~WalWorld() {
    store.reset();
    engine.reset();
    std::remove(wal_path.c_str());
  }

  Participant& P(ParticipantId id) { return *peers[id - 1]; }

  void Publish(ParticipantId id, core::Update update) {
    ORCH_CHECK(P(id).ExecuteTransaction({std::move(update)}).ok());
    ORCH_CHECK(P(id).Publish(store.get()).ok());
  }

  /// (Re)opens the engine from the WAL and a store over it, first
  /// dropping any open ones as a crash of the store process does.
  void OpenStore() {
    store.reset();
    engine.reset();
    auto reopened = storage::StorageEngine::OpenDurable(wal_path);
    ORCH_CHECK(reopened.ok(), "%s", reopened.status().ToString().c_str());
    engine = std::move(*reopened);
    engine->set_fault_injector(&injector);
    store = std::make_unique<CentralStore>(engine.get(), &network);
    for (const auto& policy : policies) {
      ORCH_CHECK(store->RegisterParticipant(policy->self(), policy.get()).ok());
    }
  }

  db::Catalog catalog;
  const std::string wal_path;
  net::SimNetwork network;
  FaultInjector injector;
  std::unique_ptr<storage::StorageEngine> engine;
  std::unique_ptr<CentralStore> store;
  std::vector<std::unique_ptr<TrustPolicy>> policies;
  std::vector<std::unique_ptr<Participant>> peers;
};

/// The ids peer `peer` durably applied, read from its "dec:" rows.
TxnIdSet DurablyApplied(const storage::StorageEngine& engine,
                        ParticipantId peer) {
  TxnIdSet applied;
  for (const auto& [key, verdict] :
       engine.ScanPrefix("dec:" + std::to_string(peer), "")) {
    if (verdict != "A") continue;
    TransactionId id;
    ORCH_CHECK(std::sscanf(key.c_str(), "%10u:%16" SCNu64, &id.origin,
                           &id.seq) == 2,
               "%s", key.c_str());
    applied.insert(id);
  }
  return applied;
}

/// Reconciles until a round fetches nothing new.
void Drain(Participant& peer, core::UpdateStore* store) {
  for (int round = 0; round < 4; ++round) {
    auto report = peer.Reconcile(store);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (report->fetched == 0) return;
  }
  FAIL() << "peer " << peer.id() << " did not drain";
}

// Every crash point of one reconciliation on the WAL-backed central
// store. A fault-free twin counts the storage calls peer 1's second
// Reconcile makes (its fetch's, then its recording's: the decision
// rows, the decision-log row, the sync and the provenance row). Then,
// for each call i, a fresh world crashes there (a sticky fault: nothing
// after it lands), the store restarts from its WAL and the peer
// recovers through Participant::RecoverFromStore.
TEST(WalCrashConsistencyTest, EveryCrashPointOfOneReconciliationRecovers) {
  WalWorld twin("twin");
  FaultInjectorConfig counting;
  counting.site_prefix = "storage.";
  counting.fail_at_call = int64_t{1} << 40;  // arms the count, never fires
  twin.injector.Configure(counting);
  auto target = twin.P(1).Reconcile(twin.store.get());
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  const int64_t calls = twin.injector.calls();
  twin.injector.Configure(FaultInjectorConfig{});
  ASSERT_EQ(target->accepted.size(), 1u);
  ASSERT_EQ(target->rejected.size(), 1u);
  ASSERT_EQ(twin.P(1).deferred_count(), 2u);
  Drain(twin.P(1), twin.store.get());
  const int64_t prev_recno = target->recno - 1;

  bool crashed_before_log = false;
  bool crashed_after_log = false;
  for (int64_t i = 1; i <= calls; ++i) {
    SCOPED_TRACE("crash at storage call " + std::to_string(i) + " of " +
                 std::to_string(calls));
    WalWorld w(std::to_string(i));
    FaultInjectorConfig crash = counting;
    crash.fail_at_call = i;
    crash.sticky = true;
    w.injector.Configure(crash);
    auto crashed = w.P(1).Reconcile(w.store.get());
    EXPECT_TRUE(crashed.ok() ||
                crashed.status().code() == StatusCode::kUnavailable)
        << crashed.status().ToString();
    ASSERT_GT(w.injector.injected(), 0);
    w.injector.Configure(FaultInjectorConfig{});
    w.OpenStore();

    auto bundle = w.store->FetchRecoveryState(1);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    EXPECT_TRUE(bundle->last_decided_recno == prev_recno ||
                bundle->last_decided_recno == target->recno)
        << bundle->last_decided_recno;
    crashed_before_log |= bundle->last_decided_recno == prev_recno;
    crashed_after_log |= bundle->last_decided_recno == target->recno;

    auto recovered = Participant::RecoverFromStore(1, &w.catalog,
                                                   *w.policies[0],
                                                   w.store.get());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    Participant& peer = **recovered;
    EXPECT_EQ(peer.applied(), DurablyApplied(*w.engine, 1));
    Drain(peer, w.store.get());
    EXPECT_TRUE(peer.instance() == twin.P(1).instance());
    EXPECT_EQ(peer.applied(), twin.P(1).applied());
    EXPECT_EQ(peer.rejected(), twin.P(1).rejected());
    EXPECT_EQ(peer.deferred_count(), twin.P(1).deferred_count());
  }
  // The sweep reached both sides of the recording's witness row.
  EXPECT_TRUE(crashed_before_log);
  EXPECT_TRUE(crashed_after_log);
}


/// A DHT confederation of peers 2..4 over eight ring nodes without
/// replication, each peer trusting the others at priority 1. Peer 2 has
/// reconciled once, deferring a two-way conflict; a second window then
/// brings it four transactions to accept and one to reject. Peer 2 runs
/// on node 2, which controls one of those five transactions; its
/// coordinator and the other controllers are remote. Without replication
/// a decision written to the peer's own node needs no message, so it
/// lands whatever the network loses.
struct DhtWorld {
  static constexpr ParticipantId kPeer = 2;  // the one that reconciles

  DhtWorld() : catalog(MakeProteinCatalog()) {
    network.set_fault_injector(&injector);
    DhtStoreOptions options;
    options.replication_factor = 1;
    store = std::make_unique<DhtStore>(8, &network, nullptr, options);
    for (ParticipantId id = 2; id <= 4; ++id) {
      auto policy = std::make_unique<TrustPolicy>(id);
      for (ParticipantId other = 2; other <= 4; ++other) {
        if (other != id) policy->TrustPeer(other, 1);
      }
      ORCH_CHECK(store->RegisterParticipant(id, policy.get()).ok());
      peers.push_back(std::make_unique<Participant>(id, &catalog, *policy));
      policies.push_back(std::move(policy));
    }
    Publish(3, Ins("rat", "p1", "three", 3));
    Publish(4, Ins("rat", "p1", "four", 4));
    Publish(3, Ins("rat", "p2", "x", 3));
    ORCH_CHECK(P(kPeer).Reconcile(store.get()).ok());
    Publish(3, Ins("rat", "p3", "y", 3));
    Publish(4, Ins("rat", "p4", "z", 4));
    Publish(3, Ins("rat", "p5", "v", 3));
    Publish(4, Ins("rat", "p6", "w", 4));
    Publish(4, Ins("rat", "p2", "other", 4));  // clashes with applied x
  }

  Participant& P(ParticipantId id) { return *peers[id - 2]; }

  void Publish(ParticipantId id, core::Update update) {
    ORCH_CHECK(P(id).ExecuteTransaction({std::move(update)}).ok());
    ORCH_CHECK(P(id).Publish(store.get()).ok());
  }

  db::Catalog catalog;
  net::SimNetwork network;
  FaultInjector injector;
  std::unique_ptr<DhtStore> store;
  std::vector<std::unique_ptr<TrustPolicy>> policies;
  std::vector<std::unique_ptr<Participant>> peers;
};

/// A peer's durable decisions as the store's recovery reports them.
std::map<TransactionId, char> DurableDecisions(const core::RecoveryBundle& b) {
  std::map<TransactionId, char> decisions;
  for (const Transaction& txn : b.applied) decisions[txn.id] = 'A';
  for (const TransactionId& id : b.rejected) decisions[id] = 'R';
  return decisions;
}

// Every crash point of one DHT recording. The completion witness travels
// beside the decision puts, so either can land without the other.
// Counting on fault-free twins gives the sends of the peer's second
// Reconcile and of its fetch alone; the recording is the rest. Then, for
// each of the recording's sends, a fresh world crashes there (a sticky
// fault: nothing the network carries after it lands), and the peer
// recovers through Participant::RecoverFromStore. Recovery must never
// claim the reconciliation complete while one of its decisions is
// missing, and the recovered peer must drain to the crash-free state.
TEST(DhtCrashConsistencyTest, EveryCrashPointOfOneRecordingRecovers) {
  constexpr ParticipantId kPeer = DhtWorld::kPeer;
  FaultInjectorConfig counting;
  counting.site_prefix = "net.send";
  counting.fail_at_call = int64_t{1} << 40;  // arms the count, never fires

  DhtWorld before;
  auto prior = before.store->FetchRecoveryState(kPeer);
  ASSERT_TRUE(prior.ok()) << prior.status().ToString();
  DhtWorld fetch_only;
  fetch_only.injector.Configure(counting);
  ASSERT_TRUE(fetch_only.store->BeginReconciliation(kPeer).ok());
  const int64_t fetch_calls = fetch_only.injector.calls();

  DhtWorld twin;
  twin.injector.Configure(counting);
  auto target = twin.P(kPeer).Reconcile(twin.store.get());
  ASSERT_TRUE(target.ok()) << target.status().ToString();
  const int64_t calls = twin.injector.calls();
  twin.injector.Configure(FaultInjectorConfig{});
  ASSERT_EQ(target->accepted.size(), 4u);
  ASSERT_EQ(target->rejected.size(), 1u);
  ASSERT_EQ(twin.P(kPeer).deferred_count(), 2u);
  auto recorded = twin.store->FetchRecoveryState(kPeer);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  ASSERT_EQ(recorded->last_decided_recno, target->recno);
  // What the recording lists: the decisions it added to the store.
  std::map<TransactionId, char> listed = DurableDecisions(*recorded);
  for (const auto& [id, verdict] : DurableDecisions(*prior)) listed.erase(id);
  ASSERT_EQ(listed.size(), 5u);
  Drain(twin.P(kPeer), twin.store.get());
  ASSERT_GT(calls, fetch_calls);

  bool witness_without_put = false;
  bool put_without_witness = false;
  for (int64_t i = fetch_calls + 1; i <= calls; ++i) {
    SCOPED_TRACE("crash at send " + std::to_string(i) + " of " +
                 std::to_string(calls));
    DhtWorld w;
    FaultInjectorConfig crash = counting;
    crash.fail_at_call = i;
    crash.sticky = true;
    w.injector.Configure(crash);
    auto crashed = w.P(kPeer).Reconcile(w.store.get());
    // A lost recording is stashed for the next one; the round succeeds.
    ASSERT_TRUE(crashed.ok()) << crashed.status().ToString();
    ASSERT_GT(w.injector.injected(), 0);
    w.injector.Configure(FaultInjectorConfig{});

    auto bundle = w.store->FetchRecoveryState(kPeer);
    ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
    const std::map<TransactionId, char> durable = DurableDecisions(*bundle);
    size_t landed = 0;
    for (const auto& [id, verdict] : listed) {
      auto it = durable.find(id);
      if (it != durable.end() && it->second == verdict) ++landed;
    }
    if (bundle->last_decided_recno == target->recno) {
      EXPECT_EQ(landed, listed.size())
          << "recovery claims a recording whose puts did not all land";
    } else {
      EXPECT_EQ(bundle->last_decided_recno, prior->last_decided_recno);
    }
    // The witness carries the watermark past the fetched window.
    const bool witness_landed = bundle->epoch == recorded->epoch;
    if (!witness_landed) {
      EXPECT_EQ(bundle->epoch, prior->epoch);
    }
    witness_without_put |= witness_landed && landed < listed.size();
    put_without_witness |= !witness_landed && landed > 0;

    auto recovered = Participant::RecoverFromStore(
        kPeer, &w.catalog, *w.policies[0], w.store.get());
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    Participant& peer = **recovered;
    Drain(peer, w.store.get());
    EXPECT_TRUE(peer.instance() == twin.P(kPeer).instance());
    EXPECT_EQ(peer.applied(), twin.P(kPeer).applied());
    EXPECT_EQ(peer.rejected(), twin.P(kPeer).rejected());
    EXPECT_EQ(peer.deferred_count(), twin.P(kPeer).deferred_count());
  }
  // The sweep reached both sides of the unordered witness.
  EXPECT_TRUE(witness_without_put);
  EXPECT_TRUE(put_without_witness);
}

// Every crash point of one DHT publish. The epoch's id list (Fig. 6,
// step 5) travels beside the transaction stores (6), so either can land
// without the other; only the commit (7), which waits for all of them,
// makes the epoch visible. A fault-free twin counts the sends of peer 3's
// publish of a two-transaction batch and, on a simulated trace, finds
// its concurrent store phase. Then, for each send i, a fresh world
// crashes there (a sticky fault: the publisher's abort never runs). While
// the publisher is down, peers 2 and 4 reconcile past the stuck epoch
// without seeing any of its transactions; then the publisher republishes
// from its queue, and every peer drains to the crash-free state with each
// transaction delivered exactly once.
TEST(DhtCrashConsistencyTest, EveryCrashPointOfOnePublishRecovers) {
  constexpr ParticipantId kPublisher = 3;
  const int reap_threshold = DhtStoreOptions{}.stuck_epoch_reap_threshold;
  FaultInjectorConfig counting;
  counting.site_prefix = "net.send";
  counting.fail_at_call = int64_t{1} << 40;  // arms the count, never fires

  // The batch: two inserts on keys nobody else writes, so its verdicts
  // do not depend on which round delivers it.
  const auto stage = [](DhtWorld& w) {
    std::vector<TransactionId> batch;
    for (const char* key : {"p7", "p8"}) {
      auto id = w.P(kPublisher).ExecuteTransaction(
          {Ins("rat", key, "new", kPublisher)});
      ORCH_CHECK(id.ok());
      batch.push_back(*id);
    }
    return batch;
  };
  // Per peer: the transactions its reconciliations were handed, and the
  // verdicts they gave the batch.
  struct Delivery {
    size_t fetched = 0;
    std::map<TransactionId, int> batch_verdicts;
  };
  using Deliveries = std::map<ParticipantId, Delivery>;
  const auto reconcile = [](DhtWorld& w, ParticipantId id,
                            const std::vector<TransactionId>& batch,
                            Deliveries* out) -> size_t {
    auto report = w.P(id).Reconcile(w.store.get());
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return 0;
    (*out)[id].fetched += report->fetched;
    for (const auto* verdicts :
         {&report->accepted, &report->rejected, &report->deferred}) {
      for (const TransactionId& txn : *verdicts) {
        if (std::count(batch.begin(), batch.end(), txn) != 0) {
          (*out)[id].batch_verdicts[txn] += 1;
        }
      }
    }
    return report->fetched;
  };
  const auto drain_all = [&](DhtWorld& w,
                             const std::vector<TransactionId>& batch,
                             Deliveries* out) {
    for (ParticipantId id = 2; id <= 4; ++id) {
      int rounds = 1;
      while (reconcile(w, id, batch, out) > 0) {
        if (++rounds > 4) {
          ADD_FAILURE() << "peer " << id << " did not drain";
          break;
        }
      }
    }
  };

  DhtWorld twin;
  const std::vector<TransactionId> batch = stage(twin);
  Tracer trace("sim");
  twin.network.set_sim_tracer(&trace);
  twin.injector.Configure(counting);
  ASSERT_TRUE(twin.P(kPublisher).Publish(twin.store.get()).ok());
  const int64_t calls = twin.injector.calls();
  twin.injector.Configure(FaultInjectorConfig{});
  twin.network.set_sim_tracer(nullptr);
  Deliveries twin_deliveries;
  drain_all(twin, batch, &twin_deliveries);
  for (ParticipantId id : {2, 4}) {
    for (const TransactionId& txn : batch) {
      ASSERT_EQ(twin_deliveries[id].batch_verdicts[txn], 1);
      ASSERT_TRUE(twin.P(id).applied().count(txn) != 0);
    }
  }

  // The store phase's sends, in call order: the id list, then each
  // transaction's store and its ack. (Every key of this batch lives off
  // the publisher's node, so each of them is one message.)
  int64_t phase_first = 0;  // call index of the phase's first send
  int64_t phase_sends = 0;
  bool in_phase = false;
  int64_t sends = 0;
  for (const testing::ParsedEvent& e : testing::ParseEvents(trace.ToJson())) {
    if (e.name == "dht.publish.store") in_phase = e.phase == 'B';
    if (e.name != "net.send") continue;
    ++sends;
    if (!in_phase) continue;
    if (phase_sends++ == 0) phase_first = sends;
  }
  // Only the ack to the publisher after the commit cannot be lost.
  ASSERT_EQ(sends, calls + 1);
  ASSERT_EQ(phase_sends, 5);
  const int64_t first_store = phase_first + 1;
  const int64_t first_ack = phase_first + 2;
  const int64_t second_store = phase_first + 3;

  bool ids_without_store = false;
  bool store_without_store = false;
  for (int64_t i = 1; i <= calls; ++i) {
    SCOPED_TRACE("crash at send " + std::to_string(i) + " of " +
                 std::to_string(calls));
    DhtWorld w;
    ASSERT_EQ(stage(w), batch);
    FaultInjectorConfig crash = counting;
    crash.fail_at_call = i;
    crash.sticky = true;
    w.injector.Configure(crash);
    auto failed = w.P(kPublisher).Publish(w.store.get());
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable)
        << failed.status().ToString();
    ASSERT_GT(w.injector.injected(), 0);
    w.injector.Disable();
    // The id list landed but the first store did not; or the first
    // store landed (its ack was lost, or the second store was) but the
    // second did not.
    ids_without_store |= i == first_store;
    store_without_store |= i == first_ack || i == second_store;

    Deliveries deliveries;
    for (int round = 0; round < reap_threshold; ++round) {
      reconcile(w, 2, batch, &deliveries);
    }
    auto stalled = w.store->FetchRecoveryState(2);
    ASSERT_TRUE(stalled.ok()) << stalled.status().ToString();
    reconcile(w, 4, batch, &deliveries);
    for (ParticipantId id : {2, 4}) {
      EXPECT_TRUE(deliveries[id].batch_verdicts.empty())
          << "peer " << id << " was handed a transaction of the failed epoch";
    }

    auto republished = w.P(kPublisher).Publish(w.store.get());
    ASSERT_TRUE(republished.ok()) << republished.status().ToString();
    // Every epoch before the republished one, the failed epoch included
    // when the allocator handed one out, lies behind peer 2's watermark.
    EXPECT_GE(stalled->epoch, *republished - 1);

    drain_all(w, batch, &deliveries);
    for (ParticipantId id = 2; id <= 4; ++id) {
      EXPECT_EQ(deliveries[id].fetched, twin_deliveries[id].fetched)
          << "peer " << id;
      EXPECT_EQ(deliveries[id].batch_verdicts,
                twin_deliveries[id].batch_verdicts)
          << "peer " << id;
      EXPECT_TRUE(w.P(id).instance() == twin.P(id).instance())
          << "peer " << id;
      EXPECT_EQ(w.P(id).applied(), twin.P(id).applied()) << "peer " << id;
      EXPECT_EQ(w.P(id).rejected(), twin.P(id).rejected()) << "peer " << id;
    }
  }
  // The sweep reached both sides of the unordered id list and stores.
  EXPECT_TRUE(ids_without_store);
  EXPECT_TRUE(store_without_store);
}

}  // namespace
}  // namespace orchestra::store
