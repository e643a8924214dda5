#include "sim/cdss.h"

#include <gtest/gtest.h>

#include "sim/experiment.h"

namespace orchestra::sim {
namespace {

CdssConfig SmallConfig(StoreKind store) {
  CdssConfig config;
  config.participants = 4;
  config.store = store;
  config.transaction_size = 1;
  config.txns_between_recons = 2;
  config.rounds = 3;
  config.seed = 11;
  config.workload.key_pool = 200;
  config.workload.key_zipf_s = 1.0;
  return config;
}

TEST(CdssTest, RejectsZeroParticipants) {
  CdssConfig config;
  config.participants = 0;
  EXPECT_FALSE(Cdss::Make(config).ok());
}

TEST(CdssTest, RejectsZeroTransactionSize) {
  CdssConfig config;
  config.transaction_size = 0;
  EXPECT_FALSE(Cdss::Make(config).ok());
}

// Reconciliation is serial: num_threads survives only as a field the
// benchmark driver sets, and any value but 1 is a configuration error.
TEST(CdssTest, AcceptsOnlyOneReconcileThread) {
  for (size_t threads : {0, 2, 4}) {
    CdssConfig config = SmallConfig(StoreKind::kCentral);
    config.num_threads = threads;
    auto cdss = Cdss::Make(config);
    ASSERT_FALSE(cdss.ok()) << threads;
    EXPECT_EQ(cdss.status().code(), StatusCode::kInvalidArgument) << threads;
  }
  CdssConfig config = SmallConfig(StoreKind::kCentral);
  config.num_threads = 1;
  EXPECT_TRUE(Cdss::Make(config).ok());
}

TEST(CdssTest, RunsWithCentralStore) {
  auto cdss = Cdss::Make(SmallConfig(StoreKind::kCentral));
  ASSERT_TRUE(cdss.ok());
  auto result = (*cdss)->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reconciliations, 12u);
  EXPECT_GT(result->transactions_published, 0u);
  EXPECT_GT(result->accepted, 0u);
  EXPECT_GE(result->state_ratio, 1.0);
  EXPECT_LE(result->state_ratio, 4.0);
  EXPECT_GT(result->messages, 0);
}

TEST(CdssTest, RunsWithDhtStore) {
  auto cdss = Cdss::Make(SmallConfig(StoreKind::kDht));
  ASSERT_TRUE(cdss.ok());
  auto result = (*cdss)->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->reconciliations, 12u);
  EXPECT_GT(result->accepted, 0u);
}

TEST(CdssTest, DeterministicAcrossRuns) {
  auto a = Cdss::Make(SmallConfig(StoreKind::kCentral));
  auto b = Cdss::Make(SmallConfig(StoreKind::kCentral));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto ra = (*a)->Run();
  auto rb = (*b)->Run();
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_DOUBLE_EQ(ra->state_ratio, rb->state_ratio);
  EXPECT_EQ(ra->accepted, rb->accepted);
  EXPECT_EQ(ra->deferred, rb->deferred);
  EXPECT_EQ(ra->messages, rb->messages);
}

TEST(CdssTest, StoreChoiceDoesNotChangeDataOutcomes) {
  // Reconciliation decisions depend on the model, not the store; with
  // the same seed and schedule, both stores converge to identical data.
  auto central = Cdss::Make(SmallConfig(StoreKind::kCentral));
  auto dht = Cdss::Make(SmallConfig(StoreKind::kDht));
  ASSERT_TRUE(central.ok());
  ASSERT_TRUE(dht.ok());
  auto rc = (*central)->Run();
  auto rd = (*dht)->Run();
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rd.ok());
  EXPECT_DOUBLE_EQ(rc->state_ratio, rd->state_ratio);
  EXPECT_EQ(rc->accepted, rd->accepted);
  EXPECT_EQ(rc->rejected, rd->rejected);
  EXPECT_EQ(rc->deferred, rd->deferred);
  for (size_t i = 0; i < (*central)->participant_count(); ++i) {
    EXPECT_TRUE((*central)->participant(i).instance() ==
                (*dht)->participant(i).instance())
        << "peer " << i << " diverged between stores";
  }
}

TEST(CdssTest, DhtUsesMoreMessagesThanCentral) {
  auto central = Cdss::Make(SmallConfig(StoreKind::kCentral));
  auto dht = Cdss::Make(SmallConfig(StoreKind::kDht));
  ASSERT_TRUE(central.ok());
  ASSERT_TRUE(dht.ok());
  auto rc = (*central)->Run();
  auto rd = (*dht)->Run();
  ASSERT_TRUE(rc.ok());
  ASSERT_TRUE(rd.ok());
  EXPECT_GT(rd->messages, rc->messages);
}

TEST(TrialStatsTest, SummarizeComputesMeanAndCi) {
  auto stats = Summarize({1.0, 2.0, 3.0, 4.0, 5.0});
  EXPECT_DOUBLE_EQ(stats.mean, 3.0);
  EXPECT_GT(stats.ci95, 0.0);
  EXPECT_LT(stats.ci95, 3.0);
  EXPECT_EQ(Summarize({}).mean, 0.0);
  EXPECT_EQ(Summarize({7.0}).ci95, 0.0);
}

TEST(TrialStatsTest, RunTrialsAggregates) {
  CdssConfig config = SmallConfig(StoreKind::kCentral);
  config.rounds = 2;
  auto agg = RunTrials(config, 3);
  ASSERT_TRUE(agg.ok());
  EXPECT_GE(agg->state_ratio.mean, 1.0);
  EXPECT_GT(agg->accepted, 0.0);
}

}  // namespace
}  // namespace orchestra::sim
