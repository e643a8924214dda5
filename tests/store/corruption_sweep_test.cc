// Corruption sweep: whole-confederation runs with silent corruption
// injected at the storage and wire sites must decide bit-identically to
// the fault-free baseline — every rotten buffer caught by a checksum
// and recovered (re-read, failover, read-repair, re-fetch), none
// consumed. A typo'd corruption site is a startup error.
#include <gtest/gtest.h>

#include "sim/cdss.h"

namespace orchestra::sim {
namespace {

CdssConfig SweepConfig(StoreKind kind) {
  CdssConfig cfg;
  cfg.store = kind;
  cfg.participants = 10;
  cfg.rounds = 3;
  cfg.txns_between_recons = 2;
  if (kind == StoreKind::kCentral) {
    // Under kDelta the central store's publish pre-admits the batch to
    // the decoded-transaction arena and reconciliations never re-read
    // the stored rows this sweep corrupts; the kFull reference bypasses
    // the arena, so every fetch reads (and verifies) the stored rows.
    // (The DHT rots its stored replicas at install time, so its default
    // mode exercises the detection paths already.)
    cfg.fetch_mode = core::FetchMode::kFull;
  }
  return cfg;
}

void ArmCorruption(CdssConfig* cfg, uint64_t seed, double p = 0.01) {
  cfg->fault.corruption_probability = p;
  cfg->fault.corruption_sites = {"storage.bit_flip", "storage.torn_write",
                                 "storage.truncate_tail",
                                 "net.payload_corrupt"};
  cfg->fault.seed = seed;
  if (cfg->store == StoreKind::kDht) cfg->scrub_interval_rounds = 2;
}

class CorruptionSweepTest : public ::testing::TestWithParam<StoreKind> {};

TEST_P(CorruptionSweepTest, CorruptedRunsMatchCorruptionFreeBaseline) {
  auto baseline_sim = Cdss::Make(SweepConfig(GetParam()));
  ASSERT_TRUE(baseline_sim.ok());
  auto baseline = (*baseline_sim)->Run();
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(baseline->corrupt_reads_detected, 0);

  int64_t total_detected = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    CdssConfig cfg = SweepConfig(GetParam());
    ArmCorruption(&cfg, seed);
    auto sim = Cdss::Make(cfg);
    ASSERT_TRUE(sim.ok());
    auto result = (*sim)->Run();
    ASSERT_TRUE(result.ok())
        << "seed " << seed << ": " << result.status().ToString();
    EXPECT_GT((*sim)->fault_injector().corrupted(), 0) << "seed " << seed;
    total_detected += result->corrupt_reads_detected;

    // Corruption tolerance must be invisible in the outcome: identical
    // decision counts and identical divergence ratio.
    EXPECT_EQ(result->transactions_published,
              baseline->transactions_published)
        << "seed " << seed;
    EXPECT_EQ(result->accepted, baseline->accepted) << "seed " << seed;
    EXPECT_EQ(result->rejected, baseline->rejected) << "seed " << seed;
    EXPECT_EQ(result->deferred, baseline->deferred) << "seed " << seed;
    EXPECT_EQ(result->state_ratio, baseline->state_ratio) << "seed " << seed;
  }
  // The sweep must actually have exercised the detection paths.
  EXPECT_GT(total_detected, 0);
}

TEST(CorruptionConfigTest, UnknownCorruptionSiteIsAStartupError) {
  CdssConfig cfg = SweepConfig(StoreKind::kCentral);
  cfg.fault.corruption_probability = 0.01;
  cfg.fault.corruption_sites = {"storage.bitflip"};  // typo
  auto sim = Cdss::Make(cfg);
  ASSERT_FALSE(sim.ok());
  EXPECT_EQ(sim.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(sim.status().message().find("storage.bitflip"),
            std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(AllStores, CorruptionSweepTest,
                         ::testing::Values(StoreKind::kCentral,
                                           StoreKind::kDht),
                         [](const auto& info) {
                           return info.param == StoreKind::kCentral ? "Central"
                                                                    : "Dht";
                         });

}  // namespace
}  // namespace orchestra::sim
