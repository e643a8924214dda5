// Bootstrap conformance (§1: a new participant populates its fresh
// local instance with another peer's published data, then curates and
// reconciles forward under its own trust policy). Run against both
// store implementations.
#include <gtest/gtest.h>

#include <memory>

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
using core::TrustPolicy;
using orchestra::testing::AllStoreKinds;
using orchestra::testing::Ins;
using orchestra::testing::InstanceHasExactly;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::MakeTestStore;
using orchestra::testing::Mod;
using orchestra::testing::StoreKind;
using orchestra::testing::StoreKindName;
using orchestra::testing::T;

class BootstrapTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  BootstrapTest() : catalog_(MakeProteinCatalog()) {
    auto [engine, store] = MakeTestStore(GetParam(), &network_);
    engine_ = std::move(engine);
    store_ = std::move(store);
    for (ParticipantId id = 1; id <= 3; ++id) {
      RegisterPeer(id);
      participants_.push_back(std::make_unique<Participant>(
          id, &catalog_, *policies_.back()));
    }
  }

  void RegisterPeer(ParticipantId id) {
    auto policy = std::make_unique<TrustPolicy>(id);
    for (ParticipantId other = 1; other <= 4; ++other) {
      if (other != id) policy->TrustPeer(other, 1);
    }
    ORCH_CHECK(store_->RegisterParticipant(id, policy.get()).ok());
    policies_.push_back(std::move(policy));
  }

  TrustPolicy PolicyFor(ParticipantId id) {
    TrustPolicy policy(id);
    for (ParticipantId other = 1; other <= 4; ++other) {
      if (other != id) policy.TrustPeer(other, 1);
    }
    return policy;
  }

  Participant& P(size_t i) { return *participants_[i - 1]; }

  db::Catalog catalog_;
  net::SimNetwork network_;
  std::unique_ptr<storage::StorageEngine> engine_;
  std::unique_ptr<core::UpdateStore> store_;
  std::vector<std::unique_ptr<TrustPolicy>> policies_;
  std::vector<std::unique_ptr<Participant>> participants_;
};

TEST_P(BootstrapTest, NewPeerAdoptsSourceInstance) {
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "a", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  ASSERT_TRUE(P(2).Reconcile(store_.get()).ok());
  ASSERT_TRUE(P(2).ExecuteTransaction({Mod("rat", "p1", "a", "b", 2)}).ok());
  ASSERT_TRUE(P(2).PublishAndReconcile(store_.get()).ok());

  // Peer 4 joins the confederation by downloading peer 2's instance.
  RegisterPeer(4);
  auto fresh = Participant::BootstrapFrom(4, &catalog_, PolicyFor(4),
                                          store_.get(), 2);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE((*fresh)->instance() == P(2).instance());
  EXPECT_TRUE(InstanceHasExactly((*fresh)->instance(),
                                 {T({"rat", "p1", "b"})}));
  EXPECT_EQ((*fresh)->applied_count(), P(2).applied_count());
}

TEST_P(BootstrapTest, BootstrappedPeerReconcilesForward) {
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "a", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  RegisterPeer(4);
  auto fresh = Participant::BootstrapFrom(4, &catalog_, PolicyFor(4),
                                          store_.get(), 1);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  // The adopted window is not re-fetched...
  auto r1 = (*fresh)->Reconcile(store_.get());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->fetched, 0u);
  // ...but everything published afterwards flows normally.
  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("mouse", "p2", "y", 2)}).ok());
  ASSERT_TRUE(P(2).PublishAndReconcile(store_.get()).ok());
  auto r2 = (*fresh)->Reconcile(store_.get());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->accepted.size(), 1u);
  EXPECT_TRUE(InstanceHasExactly(
      (*fresh)->instance(), {T({"rat", "p1", "a"}), T({"mouse", "p2", "y"})}));
}

TEST_P(BootstrapTest, SourceRejectionsAreNotInherited) {
  // Peer 2 rejected peer 1's tuple (own-version-wins); a newcomer
  // bootstrapping from peer 2 judges the same transaction under its own
  // policy — without a competing local version it simply defers/accepts.
  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("rat", "p1", "mine", 2)}).ok());
  ASSERT_TRUE(P(2).PublishAndReconcile(store_.get()).ok());
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "other", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  auto r = P(2).Reconcile(store_.get());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->rejected.size(), 1u);

  RegisterPeer(4);
  auto fresh = Participant::BootstrapFrom(4, &catalog_, PolicyFor(4),
                                          store_.get(), 2);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  // Adopted peer 2's tuple; peer 1's competing insert arrives in the
  // undecided backlog and is rejected against the adopted instance —
  // decided by the newcomer itself, not inherited.
  EXPECT_TRUE(InstanceHasExactly((*fresh)->instance(),
                                 {T({"rat", "p1", "mine"})}));
  EXPECT_EQ((*fresh)->rejected_count(), 1u);
}

TEST_P(BootstrapTest, UndecidedBacklogTransfersToNewcomer) {
  // Peers 1 and 2 conflict; peer 3 defers both. A newcomer bootstrapping
  // from peer 3 inherits the open conflict to resolve under its own
  // authority.
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "a", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("rat", "p1", "b", 2)}).ok());
  ASSERT_TRUE(P(2).PublishAndReconcile(store_.get()).ok());
  ASSERT_TRUE(P(3).Reconcile(store_.get()).ok());
  ASSERT_EQ(P(3).deferred_count(), 2u);

  RegisterPeer(4);
  auto fresh = Participant::BootstrapFrom(4, &catalog_, PolicyFor(4),
                                          store_.get(), 3);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ((*fresh)->deferred_count(), 2u);
  ASSERT_EQ((*fresh)->pending_conflicts().size(), 1u);
  auto resolved = (*fresh)->ResolveConflict(store_.get(), 0, 0);
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ((*fresh)->deferred_count(), 0u);
  EXPECT_EQ((*fresh)->instance().TotalTuples(), 1u);
}

TEST_P(BootstrapTest, UnregisteredPeersFail) {
  EXPECT_FALSE(store_->Bootstrap(9, 1).ok());
  RegisterPeer(4);
  EXPECT_FALSE(store_->Bootstrap(4, 99).ok());
}

// Bootstrapping a peer over its own history adopts the source's
// accepts, including one the peer itself had rejected: the adopted
// verdict replaces the rejection, which is not a lost decision, so the
// peer still recovers.
TEST_P(BootstrapTest, BootstrapOverARejectionStillRecovers) {
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "one", 1)}).ok());
  ASSERT_TRUE(P(1).Publish(store_.get()).ok());
  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("rat", "p1", "two", 2)}).ok());
  ASSERT_TRUE(P(2).Publish(store_.get()).ok());
  // Peer 3 defers the two clashing inserts, then rejects both; peer 1,
  // its bootstrap source, has applied its own.
  ASSERT_TRUE(P(3).Reconcile(store_.get()).ok());
  ASSERT_EQ(P(3).deferred_count(), 2u);
  ASSERT_TRUE(P(3).ResolveConflict(store_.get(), 0, std::nullopt).ok());
  ASSERT_EQ(P(3).rejected_count(), 2u);

  auto fresh = Participant::BootstrapFrom(3, &catalog_, PolicyFor(3),
                                          store_.get(), 1);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  auto recovered =
      Participant::RecoverFromStore(3, &catalog_, PolicyFor(3), store_.get());
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE((*recovered)->instance() == (*fresh)->instance());
}

// A root the new peer does not trust still travels as the antecedent of
// one it does: the trusted transaction's extension needs its body.
TEST_P(BootstrapTest, UntrustedRootStillShipsAsAntecedent) {
  // Peer 8 trusts nobody: it passes both epochs below deciding nothing.
  policies_.push_back(std::make_unique<TrustPolicy>(8));
  ASSERT_TRUE(store_->RegisterParticipant(8, policies_.back().get()).ok());
  Participant p8(8, &catalog_, *policies_.back());
  TrustPolicy only_p3(9);
  only_p3.TrustPeer(3, 1);
  policies_.push_back(std::make_unique<TrustPolicy>(only_p3));
  ASSERT_TRUE(store_->RegisterParticipant(9, policies_.back().get()).ok());

  // Z by peer 2; peer 3 accepts it and revises it as Y.
  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("rat", "p1", "z", 2)}).ok());
  ASSERT_TRUE(P(2).Publish(store_.get()).ok());
  ASSERT_TRUE(P(3).Reconcile(store_.get()).ok());
  ASSERT_TRUE(P(3).ExecuteTransaction({Mod("rat", "p1", "z", "y", 3)}).ok());
  ASSERT_TRUE(P(3).Publish(store_.get()).ok());
  auto passed = p8.Reconcile(store_.get());
  ASSERT_TRUE(passed.ok()) << passed.status().ToString();
  ASSERT_EQ(passed->fetched, 0u);

  // Peer 9 adopts nothing from peer 8 and gets both epochs as its
  // backlog: Y is trusted, Z is not, and Y's extension holds Z.
  auto fresh =
      Participant::BootstrapFrom(9, &catalog_, only_p3, store_.get(), 8);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_TRUE(
      InstanceHasExactly((*fresh)->instance(), {T({"rat", "p1", "y"})}));
  EXPECT_EQ((*fresh)->applied_count(), 2u);
}

INSTANTIATE_TEST_SUITE_P(AllStores, BootstrapTest, AllStoreKinds(),
                         StoreKindName);

}  // namespace
}  // namespace orchestra::store
