#include "core/append_only.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "test_util.h"

namespace orchestra::core {
namespace {

using orchestra::testing::Del;
using orchestra::testing::Ins;
using orchestra::testing::InstanceHasExactly;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::T;
using orchestra::testing::Txn;

class AppendOnlyTest : public ::testing::Test {
 protected:
  AppendOnlyTest()
      : catalog_(MakeProteinCatalog()),
        instance_(&catalog_),
        policy_(1),
        reconciler_(&catalog_, &policy_) {
    for (ParticipantId peer = 2; peer <= 6; ++peer) {
      policy_.TrustPeer(peer, static_cast<int>(peer) - 1);  // 2->1 ... 6->5
    }
  }

  db::Catalog catalog_;
  db::Instance instance_;
  TrustPolicy policy_;
  AppendOnlyReconciler reconciler_;
};

TEST_F(AppendOnlyTest, SingleInsertApplies) {
  auto result =
      reconciler_.ApplyEpoch({Txn(2, 0, {Ins("rat", "p1", "x", 2)})},
                             &instance_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->applied.size(), 1u);
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "x"})}));
}

TEST_F(AppendOnlyTest, NonInsertIsInvalid) {
  auto result = reconciler_.ApplyEpoch(
      {Txn(2, 0, {Del("rat", "p1", "x", 2)})}, &instance_);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(instance_.TotalTuples(), 0u);
}

TEST_F(AppendOnlyTest, UntrustedTransactionsAreSkipped) {
  auto result = reconciler_.ApplyEpoch(
      {Txn(99, 0, {Ins("rat", "p1", "x", 99)})}, &instance_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->applied.empty());
  EXPECT_EQ(result->skipped.size(), 1u);
  EXPECT_EQ(instance_.TotalTuples(), 0u);
}

TEST_F(AppendOnlyTest, EqualPrioritySameEpochTieDropsBoth) {
  auto result = reconciler_.ApplyEpoch(
      {Txn(2, 0, {Ins("rat", "p1", "a", 2)}),
       Txn(2, 1, {Ins("rat", "p1", "b", 2)})},
      &instance_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->applied.empty());
  EXPECT_EQ(result->skipped.size(), 2u);
  EXPECT_EQ(instance_.TotalTuples(), 0u);
}

TEST_F(AppendOnlyTest, HigherPriorityWinsWithinEpoch) {
  auto result = reconciler_.ApplyEpoch(
      {Txn(2, 0, {Ins("rat", "p1", "low", 2)}),    // priority 1
       Txn(5, 0, {Ins("rat", "p1", "high", 5)})},  // priority 4
      &instance_);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->applied.size(), 1u);
  EXPECT_EQ(result->applied[0], (TransactionId{5, 0}));
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "high"})}));
}

TEST_F(AppendOnlyTest, EarlierEpochBlocksLaterConflicts) {
  ASSERT_TRUE(reconciler_
                  .ApplyEpoch({Txn(2, 0, {Ins("rat", "p1", "first", 2)})},
                              &instance_)
                  .ok());
  // Even a much higher-priority later insert loses to the earlier epoch
  // (monotonicity: the applied value is never rolled back).
  auto result = reconciler_.ApplyEpoch(
      {Txn(6, 0, {Ins("rat", "p1", "late", 6)})}, &instance_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->applied.empty());
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "first"})}));
}

TEST_F(AppendOnlyTest, UnappliedEarlierPublicationStillBlocks) {
  // Definition 2's second condition quantifies over *published*
  // transactions, not accepted ones: a tie in epoch 1 applies nothing,
  // yet still blocks either value's key in later epochs.
  ASSERT_TRUE(reconciler_
                  .ApplyEpoch({Txn(2, 0, {Ins("rat", "p1", "a", 2)}),
                               Txn(2, 1, {Ins("rat", "p1", "b", 2)})},
                              &instance_)
                  .ok());
  auto result = reconciler_.ApplyEpoch(
      {Txn(4, 0, {Ins("rat", "p1", "c", 4)})}, &instance_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->applied.empty());
  EXPECT_EQ(instance_.TotalTuples(), 0u);
}

TEST_F(AppendOnlyTest, IdenticalInsertsAgreeAcrossEpochs) {
  ASSERT_TRUE(reconciler_
                  .ApplyEpoch({Txn(2, 0, {Ins("rat", "p1", "same", 2)})},
                              &instance_)
                  .ok());
  auto result = reconciler_.ApplyEpoch(
      {Txn(3, 0, {Ins("rat", "p1", "same", 3)})}, &instance_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->applied.size(), 1u);
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "same"})}));
}

TEST_F(AppendOnlyTest, MultiInsertTransactionIsAtomic) {
  // One update conflicting with history skips the whole transaction.
  ASSERT_TRUE(reconciler_
                  .ApplyEpoch({Txn(2, 0, {Ins("rat", "p1", "x", 2)})},
                              &instance_)
                  .ok());
  auto result = reconciler_.ApplyEpoch(
      {Txn(3, 0, {Ins("rat", "p1", "y", 3), Ins("rat", "p2", "z", 3)})},
      &instance_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->applied.empty());
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "x"})}));
}

TEST_F(AppendOnlyTest, IndependentKeysFlowFreely) {
  for (int e = 0; e < 5; ++e) {
    const std::string protein = "p" + std::to_string(e);
    auto result = reconciler_.ApplyEpoch(
        {Txn(2, static_cast<uint64_t>(e),
             {Ins("rat", protein.c_str(), "fn", 2)})},
        &instance_);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->applied.size(), 1u);
  }
  EXPECT_EQ(instance_.TotalTuples(), 5u);
}

class AppendOnlyRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AppendOnlyRandomTest, FirstTrustedPublicationOfEachKeyWins) {
  // Oracle for random insert streams with distinct per-txn values and
  // one insert per epoch: the first trusted publication of each key is
  // exactly what ends up in the instance.
  Rng rng(GetParam());
  db::Catalog catalog = MakeProteinCatalog();
  db::Instance instance(&catalog);
  TrustPolicy policy(1);
  policy.TrustPeer(2, 1).TrustPeer(3, 1);
  AppendOnlyReconciler reconciler(&catalog, &policy);

  std::map<std::string, std::string> oracle;  // protein -> first value
  for (int e = 0; e < 120; ++e) {
    const std::string protein = "p" + std::to_string(rng.NextBounded(12));
    const std::string value = "v" + std::to_string(e);  // unique per epoch
    const auto origin =
        static_cast<ParticipantId>(2 + rng.NextBounded(3));  // 2,3 trusted; 4 not
    const bool trusted = origin != 4;
    auto result = reconciler.ApplyEpoch(
        {Txn(origin, static_cast<uint64_t>(e),
             {Ins("rat", protein.c_str(), value.c_str(), origin)})},
        &instance);
    ASSERT_TRUE(result.ok());
    // Untrusted publications are skipped but still block the key for
    // later epochs, so the oracle records every publication.
    if (oracle.emplace(protein, value).second && trusted) {
      EXPECT_EQ(result->applied.size(), 1u) << "epoch " << e;
    } else {
      EXPECT_TRUE(result->applied.empty()) << "epoch " << e;
    }
  }
  auto table = instance.GetTable("F");
  for (const db::Tuple& t : (*table)->Rows()) {
    EXPECT_EQ(oracle.at(t[1].AsString()), t[2].AsString());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AppendOnlyRandomTest,
                         ::testing::Values(21u, 22u, 23u));

}  // namespace
}  // namespace orchestra::core
