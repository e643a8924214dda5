// Incremental reconsideration: a deferred verdict that nothing touched is
// carried into the next round unanalysed, and each trigger of the carry
// rule (docs/ARCHITECTURE.md, "Soft state") makes the transaction run
// again. Every test here pins a verdict that changes only because its
// trigger fired, so a carry rule that missed the trigger would keep the
// stale deferral and fail the test.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/participant.h"
#include "core/provenance.h"
#include "net/sim_network.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "test_util.h"
#include "workload/swissprot.h"

namespace orchestra::core {
namespace {

using orchestra::testing::T;
using workload::kCrossRefRelation;
using workload::kFunctionRelation;

Update Fn(const char* organism, const char* protein, const char* function) {
  return Update::Insert(kFunctionRelation, T({organism, protein, function}),
                        0);
}
Update FnDel(const char* organism, const char* protein,
             const char* function) {
  return Update::Delete(kFunctionRelation, T({organism, protein, function}),
                        0);
}
Update FnMod(const char* organism, const char* protein, const char* from,
             const char* to) {
  return Update::Modify(kFunctionRelation, T({organism, protein, from}),
                        T({organism, protein, to}), 0);
}
Update Xref(const char* organism, const char* protein, const char* db,
            const char* accession) {
  return Update::Insert(kCrossRefRelation,
                        T({organism, protein, db, accession}), 0);
}

bool Has(const std::vector<TransactionId>& ids, const TransactionId& id) {
  return std::find(ids.begin(), ids.end(), id) != ids.end();
}

const ProvenanceRecord* RecordOf(const ReconcileReport& report,
                                 const TransactionId& id) {
  for (const ProvenanceRecord& rec : report.provenance) {
    if (rec.txn == id) return &rec;
  }
  return nullptr;
}

// Four peers on one central store, all trusting each other at priority
// 1 unless a test installs its own policy for peer 1 (the observer).
class CarryTest : public ::testing::Test {
 protected:
  CarryTest()
      : catalog_(*workload::MakeSwissProtCatalog()),
        engine_(storage::StorageEngine::InMemory()),
        store_(engine_.get(), &network_) {}

  void SetUp() override { Build(UniformPolicy(1)); }

  static TrustPolicy UniformPolicy(ParticipantId id) {
    TrustPolicy policy(id);
    for (ParticipantId other = 1; other <= 4; ++other) {
      if (other != id) policy.TrustPeer(other, 1);
    }
    return policy;
  }

  void Build(TrustPolicy observer) {
    policies_.clear();
    participants_.clear();
    for (ParticipantId id = 1; id <= 4; ++id) {
      policies_.push_back(std::make_unique<TrustPolicy>(
          id == 1 ? observer : UniformPolicy(id)));
      ORCH_CHECK(store_.RegisterParticipant(id, policies_.back().get()).ok());
      participants_.push_back(
          std::make_unique<Participant>(id, &catalog_, *policies_.back()));
    }
  }

  Participant& P(size_t i) { return *participants_[i - 1]; }

  TransactionId Exec(size_t peer, std::vector<Update> updates) {
    auto id = P(peer).ExecuteTransaction(std::move(updates));
    ORCH_CHECK(id.ok());
    return *id;
  }
  void Publish(size_t peer) { ORCH_CHECK(P(peer).Publish(&store_).ok()); }
  ReconcileReport Reconcile(size_t peer) {
    auto report = P(peer).Reconcile(&store_);
    ORCH_CHECK(report.ok());
    return *std::move(report);
  }

  // Peer 1 defers `a` and `b` as an equal-priority dilemma, runs them
  // once more as reconsidered inputs (a first-time deferral always
  // does), and then carries both through a round in which nothing
  // changed.
  void DeferUntilCarried(const TransactionId& a, const TransactionId& b) {
    ReconcileReport first = Reconcile(1);
    ASSERT_TRUE(Has(first.deferred, a) && Has(first.deferred, b));
    ReconcileReport second = Reconcile(1);
    EXPECT_EQ(second.carried, 0u);
    ReconcileReport third = Reconcile(1);
    EXPECT_EQ(third.reconsidered, 2u);
    EXPECT_EQ(third.carried, 2u);
    EXPECT_TRUE(Has(third.deferred, a) && Has(third.deferred, b));
    ASSERT_EQ(P(1).pending_conflicts().size(), 1u);
  }

  db::Catalog catalog_;
  net::SimNetwork network_;
  std::unique_ptr<storage::StorageEngine> engine_;
  store::CentralStore store_;
  std::vector<std::unique_ptr<TrustPolicy>> policies_;
  std::vector<std::unique_ptr<Participant>> participants_;
};

TEST_F(CarryTest, UntouchedDilemmaIsCarriedWithItsRecord) {
  const TransactionId a = Exec(2, {Fn("rat", "p1", "a")});
  const TransactionId b = Exec(3, {Fn("rat", "p1", "b")});
  Publish(2);
  Publish(3);
  Reconcile(1);
  const ReconcileReport ran = Reconcile(1);
  const ReconcileReport carried = Reconcile(1);
  EXPECT_EQ(ran.carried, 0u);
  EXPECT_EQ(carried.carried, 2u);
  // Only recno and epoch are restamped on a carried record.
  ASSERT_EQ(ran.provenance.size(), carried.provenance.size());
  for (size_t i = 0; i < ran.provenance.size(); ++i) {
    ProvenanceRecord expected = ran.provenance[i];
    expected.recno = carried.provenance[i].recno;
    expected.epoch = carried.provenance[i].epoch;
    EXPECT_EQ(expected.ToJson(), carried.provenance[i].ToJson());
  }
  EXPECT_EQ(carried.deferred, (std::vector<TransactionId>{a, b}));
}

// Rule 1: the round's own delta writes a deferred key.
TEST_F(CarryTest, OwnDeltaOnADeferredKeyRunsItAgain) {
  const TransactionId a = Exec(2, {Fn("rat", "p1", "a")});
  const TransactionId b = Exec(3, {Fn("rat", "p1", "b")});
  Publish(2);
  Publish(3);
  DeferUntilCarried(a, b);
  Exec(1, {Fn("rat", "p1", "mine")});
  const ReconcileReport report = Reconcile(1);
  EXPECT_EQ(report.carried, 0u);
  EXPECT_TRUE(Has(report.rejected, a));
  EXPECT_TRUE(Has(report.rejected, b));
  EXPECT_TRUE(P(1).pending_conflicts().empty());
}

// Rule 1, through a foreign-key parent: the deferred transaction inserts a
// CrossRef child of Function('rat', 'p1'), which it never writes. The
// parent's deletion, applied by the previous run, makes the child
// inapplicable.
TEST_F(CarryTest, DeletedForeignKeyParentRunsItAgain) {
  const TransactionId parent = Exec(4, {Fn("rat", "p1", "f")});
  Publish(4);
  for (size_t peer : {1, 2, 3}) Reconcile(peer);
  const TransactionId a =
      Exec(2, {Fn("rat", "p2", "a"), Xref("rat", "p1", "PDB", "A1")});
  const TransactionId b = Exec(3, {Fn("rat", "p2", "b")});
  Publish(2);
  Publish(3);
  DeferUntilCarried(a, b);

  const TransactionId del = Exec(4, {FnDel("rat", "p1", "f")});
  Publish(4);
  const ReconcileReport deleted = Reconcile(1);
  EXPECT_TRUE(Has(deleted.accepted, del));
  EXPECT_TRUE(Has(deleted.deferred, a));  // the parent still existed
  EXPECT_EQ(P(1).applied().count(parent), 1u);

  const ReconcileReport after = Reconcile(1);
  EXPECT_EQ(after.carried, 0u);
  EXPECT_TRUE(Has(after.rejected, a));
  EXPECT_TRUE(Has(after.accepted, b));
  const ProvenanceRecord* rec = RecordOf(after, a);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->cause, ProvenanceCause::kNotApplicable);
}

// Rule 2: a fresh transaction's extension contains a deferred one. The
// fresh delete cancels its antecedent's insert, so its footprint is
// empty and meets nothing; only the extension edge says it depends on
// the deferral.
TEST_F(CarryTest, FreshDependentRunsItsDeferredAntecedentAgain) {
  const TransactionId a = Exec(2, {Fn("rat", "p1", "a")});
  const TransactionId b = Exec(3, {Fn("rat", "p1", "b")});
  Publish(2);
  Publish(3);
  DeferUntilCarried(a, b);
  const TransactionId undo = Exec(2, {FnDel("rat", "p1", "a")});
  Publish(2);
  const ReconcileReport report = Reconcile(1);
  EXPECT_EQ(report.carried, 0u);
  EXPECT_TRUE(Has(report.deferred, undo));
  EXPECT_TRUE(Has(report.deferred, a));
  EXPECT_EQ(P(1).applied().count(a), 0u);
  const ProvenanceRecord* rec = RecordOf(report, undo);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->cause, ProvenanceCause::kDeferredAntecedent);
}

// Rule 2: an antecedent outside the backlog is applied. Peer 1 does not
// trust peer 2's "raw" inserts, so `raw` is never an input of its own;
// `a` deletes it again (their flattened extension leaves no trace on
// ('rat', 'p1')) while contesting ('rat', 'p2'). When peer 4's accepted
// modification applies `raw`, `a`'s extension shrinks to `a` alone, whose
// delete is now stale.
TEST_F(CarryTest, AppliedAntecedentRunsItAgain) {
  TrustPolicy observer(1);
  observer.AddRule(AcceptanceRule()
                       .FromOrigin(2)
                       .Where([](const Update& u) {
                         return !u.is_insert() ||
                                u.new_tuple()[2] != db::Value("raw");
                       })
                       .WithPriority(1));
  observer.TrustPeer(3, 1).TrustPeer(4, 1);
  Build(std::move(observer));

  const TransactionId raw = Exec(2, {Fn("rat", "p1", "raw")});
  Publish(2);
  Reconcile(4);
  const TransactionId a =
      Exec(2, {FnDel("rat", "p1", "raw"), Fn("rat", "p2", "a")});
  const TransactionId b = Exec(3, {Fn("rat", "p2", "b")});
  Publish(2);
  Publish(3);
  DeferUntilCarried(a, b);

  const TransactionId edit = Exec(4, {FnMod("rat", "p1", "raw", "other")});
  Publish(4);
  const ReconcileReport applied = Reconcile(1);
  EXPECT_TRUE(Has(applied.accepted, edit));
  EXPECT_EQ(P(1).applied().count(raw), 1u);
  EXPECT_TRUE(Has(applied.deferred, a));

  const ReconcileReport after = Reconcile(1);
  EXPECT_EQ(after.carried, 0u);
  EXPECT_TRUE(Has(after.rejected, a));
  EXPECT_TRUE(Has(after.accepted, b));
}

// Rule 3: a first-time deferral runs again as a reconsidered input. `c`
// agrees with `a` on ('rat', 'p5') but touches its dirty value, so it is
// deferred when fresh; reconsidered, it skips the dirty check and is
// accepted, though nothing else changed.
TEST_F(CarryTest, FirstTimeDeferralRunsAgain) {
  const TransactionId a =
      Exec(2, {Fn("rat", "p1", "a"), Fn("rat", "p5", "q")});
  const TransactionId b = Exec(3, {Fn("rat", "p1", "b")});
  Publish(2);
  Publish(3);
  DeferUntilCarried(a, b);
  const TransactionId c = Exec(4, {Fn("rat", "p5", "q")});
  Publish(4);
  const ReconcileReport fresh = Reconcile(1);
  EXPECT_TRUE(Has(fresh.deferred, c));
  const ProvenanceRecord* rec = RecordOf(fresh, c);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->cause, ProvenanceCause::kDirtyValue);

  const ReconcileReport again = Reconcile(1);
  EXPECT_TRUE(Has(again.accepted, c));
  EXPECT_TRUE(Has(again.deferred, a));
}

// Recovery starts from an empty carry set: the recovery run analyses the
// whole backlog, and the recovered participant then carries what that
// run concluded, exactly as the participant it replaces would have.
TEST_F(CarryTest, RecoveryAnalysesTheBacklogThenCarries) {
  const TransactionId a = Exec(2, {Fn("rat", "p1", "a")});
  const TransactionId b = Exec(3, {Fn("rat", "p1", "b")});
  Publish(2);
  Publish(3);
  DeferUntilCarried(a, b);
  const ReconcileReport before = Reconcile(1);
  ASSERT_EQ(before.carried, 2u);

  auto recovered = Participant::RecoverFromStore(1, &catalog_,
                                                 *policies_[0], &store_);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  participants_[0] = std::move(*recovered);
  EXPECT_EQ(P(1).deferred_count(), 2u);
  ASSERT_EQ(P(1).pending_conflicts().size(), 1u);

  const ReconcileReport after = Reconcile(1);
  EXPECT_EQ(after.carried, 2u);
  EXPECT_EQ(after.deferred, before.deferred);
  ASSERT_EQ(after.provenance.size(), before.provenance.size());
  for (size_t i = 0; i < after.provenance.size(); ++i) {
    ProvenanceRecord expected = before.provenance[i];
    expected.recno = after.provenance[i].recno;
    expected.epoch = after.provenance[i].epoch;
    EXPECT_EQ(expected.ToJson(), after.provenance[i].ToJson());
  }
  // The recovered participant still re-runs what a trigger touches.
  Exec(1, {Fn("rat", "p1", "mine")});
  const ReconcileReport touched = Reconcile(1);
  EXPECT_EQ(touched.carried, 0u);
  EXPECT_TRUE(Has(touched.rejected, a) && Has(touched.rejected, b));
}

}  // namespace
}  // namespace orchestra::core
