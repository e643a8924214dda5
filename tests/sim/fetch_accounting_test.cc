// Each fetch fact is counted once in the registry, store-side. This
// test pins that count to the per-round ReconcileReport::fetch_stats the
// participant returns: summed over every StepParticipant of a small
// confederation, the reports equal the movement of the store's own
// counters, so no participant-side mirror of FetchStats is needed.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "common/metrics.h"
#include "sim/cdss.h"

namespace orchestra::sim {
namespace {

CdssConfig SmallConfig(StoreKind store) {
  CdssConfig config;
  config.participants = 6;
  config.store = store;
  config.rounds = 4;
  config.txns_between_recons = 2;
  config.seed = 7;
  config.workload.key_pool = 150;  // small pool -> conflicts and deferrals
  return config;
}

// Steps every peer through every round and returns the summed reports
// next to the registry's movement over the same steps.
void StepAll(const CdssConfig& config, core::FetchStats* summed,
             std::map<std::string, int64_t>* deltas) {
  auto cdss = Cdss::Make(config);
  ASSERT_TRUE(cdss.ok()) << cdss.status().ToString();
  const auto before = MetricsRegistry::Global().CounterValues();
  for (size_t round = 0; round < config.rounds; ++round) {
    for (size_t i = 0; i < (*cdss)->participant_count(); ++i) {
      auto report = (*cdss)->StepParticipant(i);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      *summed += report->fetch_stats;
    }
  }
  *deltas = CounterDeltas(before, MetricsRegistry::Global().CounterValues());
}

int64_t Delta(const std::map<std::string, int64_t>& deltas,
              const std::string& name) {
  auto it = deltas.find(name);
  return it == deltas.end() ? 0 : it->second;
}

// Delta fetches are served from the decoded-transaction arena; the kFull
// reference decodes every row. Between them every central counter moves.
TEST(FetchAccountingTest, CentralReportsMatchStoreCounters) {
  for (const core::FetchMode mode :
       {core::FetchMode::kDelta, core::FetchMode::kFull}) {
    SCOPED_TRACE(mode == core::FetchMode::kDelta ? "delta" : "full");
    CdssConfig config = SmallConfig(StoreKind::kCentral);
    config.fetch_mode = mode;
    core::FetchStats summed;
    std::map<std::string, int64_t> deltas;
    StepAll(config, &summed, &deltas);
    EXPECT_EQ(summed.cache_hits, Delta(deltas, "store.central.cache_hits"));
    EXPECT_EQ(summed.decoded, Delta(deltas, "store.central.decoded_txns"));
    EXPECT_EQ(summed.suppressed_lookups,
              Delta(deltas, "store.central.suppressed_lookups"));
    if (mode == core::FetchMode::kDelta) {
      EXPECT_GT(summed.cache_hits, 0);
      EXPECT_GT(summed.suppressed_lookups, 0);
    } else {
      EXPECT_GT(summed.decoded, 0);
    }
  }
}

TEST(FetchAccountingTest, DhtReportsMatchStoreCounters) {
  core::FetchStats summed;
  std::map<std::string, int64_t> deltas;
  StepAll(SmallConfig(StoreKind::kDht), &summed, &deltas);
  EXPECT_EQ(summed.batched_messages,
            Delta(deltas, "store.dht.multi_get_batches"));
  EXPECT_EQ(summed.suppressed_lookups,
            Delta(deltas, "store.dht.suppressed_lookups"));
  EXPECT_GT(summed.batched_messages, 0);
  EXPECT_GT(summed.suppressed_lookups, 0);
}

}  // namespace
}  // namespace orchestra::sim
