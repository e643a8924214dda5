// Conformance suite run against BOTH update-store implementations
// (central RDBMS-style and distributed DHT-based): the reconciliation
// semantics must not depend on which store backs the confederation.
#include <gtest/gtest.h>

#include <memory>

#include "core/participant.h"
#include "core/update_store.h"
#include "net/sim_network.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "store/dht_store.h"
#include "test_util.h"

namespace orchestra::store {
namespace {

using core::Epoch;
using core::ParticipantId;
using core::Transaction;
using core::TrustPolicy;
using orchestra::testing::Ins;
using orchestra::testing::InstanceHasExactly;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::Mod;
using orchestra::testing::T;
using orchestra::testing::Txn;

enum class Kind { kCentral, kDht };

class StoreConformanceTest : public ::testing::TestWithParam<Kind> {
 protected:
  StoreConformanceTest() : catalog_(MakeProteinCatalog()) {
    if (GetParam() == Kind::kCentral) {
      engine_ = storage::StorageEngine::InMemory();
      store_ = std::make_unique<CentralStore>(engine_.get(), &network_);
    } else {
      store_ = std::make_unique<DhtStore>(4, &network_);
    }
    for (ParticipantId id = 1; id <= 4; ++id) {
      auto policy = std::make_unique<TrustPolicy>(id);
      for (ParticipantId other = 1; other <= 4; ++other) {
        if (other != id) policy->TrustPeer(other, 1);
      }
      ORCH_CHECK(store_->RegisterParticipant(id, policy.get()).ok());
      policies_.push_back(std::move(policy));
      participants_.push_back(std::make_unique<core::Participant>(
          id, &catalog_, *policies_.back()));
    }
  }

  core::Participant& P(size_t i) { return *participants_[i - 1]; }

  db::Catalog catalog_;
  net::SimNetwork network_;
  std::unique_ptr<storage::StorageEngine> engine_;
  std::unique_ptr<core::UpdateStore> store_;
  std::vector<std::unique_ptr<TrustPolicy>> policies_;
  std::vector<std::unique_ptr<core::Participant>> participants_;
};

TEST_P(StoreConformanceTest, PublishAllocatesIncreasingEpochs) {
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)}).ok());
  auto e1 = P(1).Publish(store_.get());
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("rat", "p2", "y", 2)}).ok());
  auto e2 = P(2).Publish(store_.get());
  ASSERT_TRUE(e2.ok());
  EXPECT_GT(*e1, 0);
  EXPECT_LT(*e1, *e2);
}

TEST_P(StoreConformanceTest, DuplicatePublishRejected) {
  Transaction txn = Txn(1, 0, {Ins("rat", "p1", "x", 1)});
  ASSERT_TRUE(store_->Publish(1, {txn}).ok());
  EXPECT_EQ(store_->Publish(1, {txn}).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_P(StoreConformanceTest, UpdatesPropagate) {
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  auto report = P(2).Reconcile(store_.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->accepted.size(), 1u);
  EXPECT_TRUE(InstanceHasExactly(P(2).instance(), {T({"rat", "p1", "x"})}));
}

TEST_P(StoreConformanceTest, TransactionsDeliveredAtMostOnce) {
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  auto r1 = P(2).Reconcile(store_.get());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->fetched, 1u);
  auto r2 = P(2).Reconcile(store_.get());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->fetched, 0u);
}

TEST_P(StoreConformanceTest, OwnTransactionsNeverReturned) {
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)}).ok());
  auto report = P(1).PublishAndReconcile(store_.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->fetched, 0u);
}

TEST_P(StoreConformanceTest, UntrustedTransactionsFiltered) {
  // Peer 4 whose policy trusts nobody: register a fresh participant.
  auto lonely_policy = std::make_unique<TrustPolicy>(9);
  ASSERT_TRUE(store_->RegisterParticipant(9, lonely_policy.get()).ok());
  core::Participant lonely(9, &catalog_, *lonely_policy);

  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  auto report = lonely.Reconcile(store_.get());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->fetched, 0u);
  EXPECT_TRUE(InstanceHasExactly(lonely.instance(), {}));
}

TEST_P(StoreConformanceTest, AntecedentClosureDelivered) {
  // p1 inserts; p2 revises; p3 reconciles only after both published —
  // the revision's antecedent must arrive with it.
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "a", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  ASSERT_TRUE(P(2).Reconcile(store_.get()).ok());
  ASSERT_TRUE(P(2).ExecuteTransaction({Mod("rat", "p1", "a", "b", 2)}).ok());
  ASSERT_TRUE(P(2).PublishAndReconcile(store_.get()).ok());
  ASSERT_TRUE(P(3).Reconcile(store_.get()).ok());
  EXPECT_TRUE(InstanceHasExactly(P(3).instance(), {T({"rat", "p1", "b"})}));
}

TEST_P(StoreConformanceTest, UntrustedRootStillShipsAsAntecedent) {
  // Peer 9 trusts only p3. p2 inserts; p3 accepts and revises it; peer 9
  // then reconciles once over both. The insert is an untrusted root of
  // that window and the antecedent of the trusted revision: it must
  // arrive, or the revision's extension cannot be computed.
  TrustPolicy policy(9);
  policy.TrustPeer(3, 1);
  ASSERT_TRUE(store_->RegisterParticipant(9, &policy).ok());
  core::Participant peer(9, &catalog_, policy);

  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("rat", "p1", "z", 2)}).ok());
  ASSERT_TRUE(P(2).PublishAndReconcile(store_.get()).ok());
  ASSERT_TRUE(P(3).Reconcile(store_.get()).ok());
  ASSERT_TRUE(P(3).ExecuteTransaction({Mod("rat", "p1", "z", "y", 3)}).ok());
  ASSERT_TRUE(P(3).PublishAndReconcile(store_.get()).ok());

  auto report = peer.Reconcile(store_.get());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->accepted.size(), 1u);
  EXPECT_TRUE(InstanceHasExactly(peer.instance(), {T({"rat", "p1", "y"})}));
}

TEST_P(StoreConformanceTest, DecisionsPreventRedelivery) {
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "mine", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  ASSERT_TRUE(P(2).ExecuteTransaction({Ins("rat", "p1", "other", 2)}).ok());
  auto r1 = P(2).PublishAndReconcile(store_.get());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1->rejected.size(), 1u);
  // p1 publishes something new; p2's next reconcile must not resend the
  // rejected transaction.
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("mouse", "p2", "y", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  auto r2 = P(2).Reconcile(store_.get());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->fetched, 1u);
  EXPECT_EQ(r2->accepted.size(), 1u);
}

TEST_P(StoreConformanceTest, StatsChargeTheRequestingPeer) {
  ASSERT_TRUE(P(1).ExecuteTransaction({Ins("rat", "p1", "x", 1)}).ok());
  ASSERT_TRUE(P(1).PublishAndReconcile(store_.get()).ok());
  ASSERT_TRUE(P(2).Reconcile(store_.get()).ok());
  EXPECT_GT(store_->StatsFor(1).messages, 0);
  EXPECT_GT(store_->StatsFor(2).messages, 0);
  EXPECT_EQ(store_->StatsFor(3).messages, 0);
}

TEST_P(StoreConformanceTest, ManyPeersConvergeOnNonConflictingData) {
  for (size_t i = 1; i <= 4; ++i) {
    const std::string protein = "p" + std::to_string(i);
    ASSERT_TRUE(P(i).ExecuteTransaction(
                        {Ins("rat", protein.c_str(), "fn",
                             static_cast<ParticipantId>(i))})
                    .ok());
    ASSERT_TRUE(P(i).PublishAndReconcile(store_.get()).ok());
  }
  // One more reconcile round so early publishers see late ones.
  for (size_t i = 1; i <= 4; ++i) {
    ASSERT_TRUE(P(i).Reconcile(store_.get()).ok());
  }
  for (size_t i = 1; i <= 4; ++i) {
    EXPECT_EQ((*P(i).instance().GetTable("F"))->size(), 4u)
        << "peer " << i << " missing tuples";
  }
}

INSTANTIATE_TEST_SUITE_P(AllStores, StoreConformanceTest,
                         ::testing::Values(Kind::kCentral, Kind::kDht),
                         [](const ::testing::TestParamInfo<Kind>& info) {
                           return info.param == Kind::kCentral ? "Central"
                                                               : "Dht";
                         });

}  // namespace
}  // namespace orchestra::store
