// The participant's transaction cache keeps a body only while some
// extension can still reach it: undecided and rejected transactions stay,
// applied ones (own transactions included) go. Checked after every kind
// of round a participant runs, on both stores.
#include <gtest/gtest.h>

#include <memory>

#include "core/participant.h"
#include "core/participant_test_peer.h"
#include "net/sim_network.h"
#include "storage/engine.h"
#include "test_util.h"

namespace orchestra::core {
namespace {

using orchestra::testing::AllStoreKinds;
using orchestra::testing::Ins;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::MakeTestStore;
using orchestra::testing::Mod;
using orchestra::testing::StoreKind;
using orchestra::testing::StoreKindName;

class CacheRetentionTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  CacheRetentionTest() : catalog_(MakeProteinCatalog()) {
    auto [engine, store] = MakeTestStore(GetParam(), &network_,
                                         /*dht_nodes=*/4,
                                         /*injector=*/nullptr, &catalog_);
    engine_ = std::move(engine);
    store_ = std::move(store);
    for (ParticipantId id = 1; id <= 4; ++id) {
      ORCH_CHECK(store_->RegisterParticipant(id, &Policy(id)).ok());
    }
    for (ParticipantId id = 1; id <= 3; ++id) {
      participants_.push_back(
          std::make_unique<Participant>(id, &catalog_, Policy(id)));
    }
  }

  /// Every peer trusts every other one equally, so conflicts defer.
  const TrustPolicy& Policy(ParticipantId id) {
    auto policy = std::make_unique<TrustPolicy>(id);
    for (ParticipantId other = 1; other <= 4; ++other) {
      if (other != id) policy->TrustPeer(other, 1);
    }
    policies_.push_back(std::move(policy));
    return *policies_.back();
  }

  Participant& P(size_t i) { return *participants_[i - 1]; }

  void Publish(size_t i, std::vector<Update> updates) {
    ASSERT_TRUE(P(i).ExecuteTransaction(std::move(updates)).ok());
    ASSERT_TRUE(P(i).Publish(store_.get()).ok());
    EXPECT_EQ(ParticipantTestPeer::CacheRetentionBreach(P(i)), "");
  }

  db::Catalog catalog_;
  net::SimNetwork network_;
  std::unique_ptr<storage::StorageEngine> engine_;
  std::unique_ptr<UpdateStore> store_;
  std::vector<std::unique_ptr<TrustPolicy>> policies_;
  std::vector<std::unique_ptr<Participant>> participants_;
};

TEST_P(CacheRetentionTest, EveryRoundKeepsOnlyReachableBodies) {
  // Two equal-priority inserts of one key: peer 3 defers both.
  Publish(1, {Ins("rat", "p1", "a", 1)});
  Publish(2, {Ins("rat", "p1", "b", 2)});
  auto deferred = P(3).Reconcile(store_.get());
  ASSERT_TRUE(deferred.ok()) << deferred.status().ToString();
  ASSERT_EQ(P(3).deferred_count(), 2u);
  EXPECT_EQ(ParticipantTestPeer::CacheRetentionBreach(P(3)), "");

  // An unrelated insert is applied in a network-centric round.
  Publish(1, {Ins("mouse", "p2", "x", 1)});
  auto network_centric = P(3).ReconcileNetworkCentric(store_.get());
  ASSERT_TRUE(network_centric.ok()) << network_centric.status().ToString();
  EXPECT_EQ(network_centric->accepted.size(), 1u);
  EXPECT_EQ(ParticipantTestPeer::CacheRetentionBreach(P(3)), "");

  // The user picks one insert: it is applied, the other rejected.
  auto resolved = P(3).ResolveConflict(store_.get(), 0, 0);
  ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
  ASSERT_EQ(P(3).rejected_count(), 1u);
  EXPECT_EQ(P(3).deferred_count(), 0u);
  EXPECT_EQ(ParticipantTestPeer::CacheRetentionBreach(P(3)), "");

  // Each author revises its own insert. The store holds the rejected
  // insert back, so the revision that builds on it reaches the body
  // only through the cache, and is rejected with it.
  Publish(1, {Mod("rat", "p1", "a", "a2", 1)});
  Publish(2, {Mod("rat", "p1", "b", "b2", 2)});
  auto revised = P(3).Reconcile(store_.get());
  ASSERT_TRUE(revised.ok()) << revised.status().ToString();
  EXPECT_EQ(revised->rejected.size(), 1u);
  EXPECT_EQ(ParticipantTestPeer::CacheRetentionBreach(P(3)), "");

  // A new conflict left open for recovery and bootstrap to re-run.
  Publish(1, {Ins("rat", "p9", "c", 1)});
  Publish(2, {Ins("rat", "p9", "d", 2)});
  ASSERT_TRUE(P(3).Reconcile(store_.get()).ok());
  ASSERT_EQ(P(3).deferred_count(), 2u);
  EXPECT_EQ(ParticipantTestPeer::CacheRetentionBreach(P(3)), "");

  auto recovered = Participant::RecoverFromStore(3, &catalog_, Policy(3),
                                                 store_.get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ((*recovered)->deferred_count(), 2u);
  EXPECT_EQ((*recovered)->applied_count(), P(3).applied_count());
  EXPECT_EQ(ParticipantTestPeer::CacheRetentionBreach(**recovered), "");

  auto bootstrapped = Participant::BootstrapFrom(4, &catalog_, Policy(4),
                                                 store_.get(), 3);
  ASSERT_TRUE(bootstrapped.ok()) << bootstrapped.status().ToString();
  EXPECT_TRUE((*bootstrapped)->instance() == P(3).instance());
  EXPECT_EQ(ParticipantTestPeer::CacheRetentionBreach(**bootstrapped), "");
}

INSTANTIATE_TEST_SUITE_P(AllStores, CacheRetentionTest, AllStoreKinds(),
                         StoreKindName);

}  // namespace
}  // namespace orchestra::core
