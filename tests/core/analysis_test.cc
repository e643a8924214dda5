#include "core/analysis.h"

#include <gtest/gtest.h>

#include "core/extension.h"
#include "test_util.h"

namespace orchestra::core {
namespace {

using orchestra::testing::Ins;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::Mod;
using orchestra::testing::Txn;

class AnalysisTest : public ::testing::Test {
 protected:
  void Put(Transaction txn) { map_.Put(std::move(txn)); }

  TrustedTxn Trusted(TransactionId id, int priority = 1) {
    TrustedTxn t;
    t.id = id;
    t.priority = priority;
    auto ext = ComputeExtension(map_, id, {});
    ORCH_CHECK(ext.ok());
    t.extension = *std::move(ext);
    return t;
  }

  db::Catalog catalog_ = MakeProteinCatalog();
  TransactionMap map_;
};

TEST_F(AnalysisTest, FlattenExtensionsMarksValidity) {
  Put(Txn(1, 0, {Ins("rat", "p1", "x", 1)}, {}, 1));
  Put(Txn(2, 0, {Ins("rat", "p2", "a", 2), Ins("rat", "p2", "b", 2)}, {}, 1));
  std::vector<TrustedTxn> txns{Trusted({1, 0}), Trusted({2, 0})};
  ReconcileAnalysis analysis;
  FlattenExtensions(catalog_, map_, txns, &analysis);
  ASSERT_EQ(analysis.up_ex.size(), 2u);
  EXPECT_TRUE(analysis.flatten_ok[0]);
  EXPECT_EQ(analysis.up_ex[0].size(), 1u);
  EXPECT_FALSE(analysis.flatten_ok[1]);  // double insert of one key
}

TEST_F(AnalysisTest, FlattenExtensionsAppendsOnlyTail) {
  Put(Txn(1, 0, {Ins("rat", "p1", "x", 1)}, {}, 1));
  Put(Txn(2, 0, {Ins("rat", "p2", "y", 2)}, {}, 1));
  std::vector<TrustedTxn> txns{Trusted({1, 0})};
  ReconcileAnalysis analysis;
  FlattenExtensions(catalog_, map_, txns, &analysis);
  // Poison the head entry; a second call must not touch it.
  analysis.up_ex[0].clear();
  txns.push_back(Trusted({2, 0}));
  FlattenExtensions(catalog_, map_, txns, &analysis);
  EXPECT_TRUE(analysis.up_ex[0].empty());
  EXPECT_EQ(analysis.up_ex[1].size(), 1u);
}

TEST_F(AnalysisTest, AnalyzeFindsConflictPairs) {
  Put(Txn(1, 0, {Ins("rat", "p1", "x", 1)}, {}, 1));
  Put(Txn(2, 0, {Ins("rat", "p1", "y", 2)}, {}, 1));
  Put(Txn(3, 0, {Ins("mouse", "p9", "z", 3)}, {}, 1));
  std::vector<TrustedTxn> txns{Trusted({1, 0}), Trusted({2, 0}),
                               Trusted({3, 0})};
  ReconcileAnalysis analysis = AnalyzeExtensions(catalog_, map_, txns);
  ASSERT_EQ(analysis.conflicts.size(), 1u);
  EXPECT_EQ(analysis.conflicts[0].i, 0u);
  EXPECT_EQ(analysis.conflicts[0].j, 1u);
  ASSERT_EQ(analysis.conflicts[0].points.size(), 1u);
  EXPECT_EQ(analysis.conflicts[0].points[0].type,
            ConflictType::kInsertInsert);
}

TEST_F(AnalysisTest, SubsumptionExemptionApplies) {
  Put(Txn(1, 0, {Ins("rat", "p1", "x", 1)}, {}, 1));
  Put(Txn(1, 1, {Mod("rat", "p1", "x", "y", 1)}, {{1, 0}}, 2));
  std::vector<TrustedTxn> txns{Trusted({1, 0}), Trusted({1, 1})};
  ReconcileAnalysis analysis = AnalyzeExtensions(catalog_, map_, txns);
  EXPECT_TRUE(analysis.conflicts.empty());
}

TEST_F(AnalysisTest, SharedAntecedentsExcluded) {
  // Two dependents of one base transaction do not conflict merely
  // because one of them carries the base's insert in its extension.
  Put(Txn(9, 0, {Ins("rat", "p1", "base", 9)}, {}, 1));
  Put(Txn(2, 0, {Mod("rat", "p1", "base", "a", 2)}, {{9, 0}}, 2));
  Put(Txn(3, 0, {Ins("mouse", "p2", "b", 3)}, {{9, 0}}, 2));
  std::vector<TrustedTxn> txns{Trusted({2, 0}), Trusted({3, 0})};
  ReconcileAnalysis analysis = AnalyzeExtensions(catalog_, map_, txns);
  EXPECT_TRUE(analysis.conflicts.empty());
}

TEST_F(AnalysisTest, IncrementalConflictSearchSkipsHeadPairs) {
  Put(Txn(1, 0, {Ins("rat", "p1", "x", 1)}, {}, 1));
  Put(Txn(2, 0, {Ins("rat", "p1", "y", 2)}, {}, 1));
  Put(Txn(3, 0, {Ins("rat", "p1", "z", 3)}, {}, 1));
  std::vector<TrustedTxn> txns{Trusted({1, 0}), Trusted({2, 0})};
  ReconcileAnalysis analysis;
  FlattenExtensions(catalog_, map_, txns, &analysis);
  FindExtensionConflicts(catalog_, map_, txns, 0, &analysis);
  ASSERT_EQ(analysis.conflicts.size(), 1u);
  // Extend with the third transaction; only pairs involving it appear.
  txns.push_back(Trusted({3, 0}));
  FlattenExtensions(catalog_, map_, txns, &analysis);
  FindExtensionConflicts(catalog_, map_, txns, 2, &analysis);
  EXPECT_EQ(analysis.conflicts.size(), 3u);  // (0,1) + (0,2) + (1,2)
  for (const auto& pair : analysis.conflicts) {
    EXPECT_LT(pair.i, pair.j);
  }
}

// Bucket order is hash order, so the (i, j) sort is the only thing
// making the conflict list deterministic. Transaction i inserts keys
// p(i % 4) and q(i % 3): most pairs collide, many on both keys, so the
// buckets overlap heavily and every pair must still appear once, in
// order.
TEST_F(AnalysisTest, CollidingKeysYieldPairsInIncreasingOrder) {
  constexpr size_t kTxns = 12;
  constexpr size_t kHead = 8;
  std::vector<TrustedTxn> txns;
  for (size_t i = 0; i < kTxns; ++i) {
    const auto origin = static_cast<ParticipantId>(i + 1);
    const std::string value = "v" + std::to_string(i);
    Put(Txn(origin, 0,
            {Ins("rat", ("p" + std::to_string(i % 4)).c_str(), value.c_str(),
                 origin),
             Ins("rat", ("q" + std::to_string(i % 3)).c_str(), value.c_str(),
                 origin)},
            {}, 1));
    txns.push_back(Trusted({origin, 0}));
  }
  std::vector<std::pair<size_t, size_t>> expected;
  for (size_t i = 0; i < kTxns; ++i) {
    for (size_t j = i + 1; j < kTxns; ++j) {
      if (i % 4 == j % 4 || i % 3 == j % 3) expected.emplace_back(i, j);
    }
  }
  const auto pairs_of = [](const ReconcileAnalysis& analysis, size_t from) {
    std::vector<std::pair<size_t, size_t>> out;
    for (size_t p = from; p < analysis.conflicts.size(); ++p) {
      out.emplace_back(analysis.conflicts[p].i, analysis.conflicts[p].j);
    }
    return out;
  };

  const ReconcileAnalysis full = AnalyzeExtensions(catalog_, map_, txns);
  EXPECT_EQ(pairs_of(full, 0), expected);  // strictly increasing, no dups

  // Head first, then the tail: the second call appends only pairs with
  // j >= kHead, themselves in increasing (i, j) order.
  std::vector<TrustedTxn> head(txns.begin(), txns.begin() + kHead);
  ReconcileAnalysis split;
  FlattenExtensions(catalog_, map_, head, &split);
  FindExtensionConflicts(catalog_, map_, head, 0, &split);
  const size_t head_pairs = split.conflicts.size();
  FlattenExtensions(catalog_, map_, txns, &split);
  FindExtensionConflicts(catalog_, map_, txns, kHead, &split);
  std::vector<std::pair<size_t, size_t>> expected_tail;
  for (const auto& pair : expected) {
    if (pair.second >= kHead) expected_tail.push_back(pair);
  }
  EXPECT_EQ(head_pairs, expected.size() - expected_tail.size());
  EXPECT_EQ(pairs_of(split, head_pairs), expected_tail);
}

TEST_F(AnalysisTest, PrecomputedAnalysisMatchesLocal) {
  // Feeding the reconciler a precomputed analysis yields the same
  // decisions as letting it compute one.
  Put(Txn(1, 0, {Ins("rat", "p1", "x", 1)}, {}, 1));
  Put(Txn(2, 0, {Ins("rat", "p1", "y", 2)}, {}, 1));
  Put(Txn(3, 0, {Ins("mouse", "p2", "z", 3)}, {}, 1));
  std::vector<TrustedTxn> txns{Trusted({1, 0}, 2), Trusted({2, 0}, 1),
                               Trusted({3, 0}, 1)};
  const ReconcileAnalysis analysis = AnalyzeExtensions(catalog_, map_, txns);

  Reconciler reconciler(&catalog_);
  TxnIdSet applied, rejected;
  RelKeySet dirty;
  auto run = [&](const ReconcileAnalysis* precomputed) {
    db::Instance instance(&catalog_);
    ReconcileInput input;
    input.recno = 1;
    input.txns = txns;
    input.provider = &map_;
    input.applied = &applied;
    input.rejected = &rejected;
    input.dirty = &dirty;
    input.analysis = precomputed;
    auto outcome = reconciler.Run(input, &instance);
    ORCH_CHECK(outcome.ok());
    return *std::move(outcome);
  };
  const ReconcileOutcome local = run(nullptr);
  const ReconcileOutcome shipped = run(&analysis);
  EXPECT_EQ(local.accepted_roots, shipped.accepted_roots);
  EXPECT_EQ(local.rejected_roots, shipped.rejected_roots);
  EXPECT_EQ(local.deferred_roots, shipped.deferred_roots);
}

}  // namespace
}  // namespace orchestra::core
