// Observability must be a pure observer: running the same seeded
// confederation with tracing enabled produces bit-identical per-peer
// decisions to a run with tracing off, and Cdss::Run exposes the
// registry's movement over the run as its whole-run counter block. The
// simulated-time trace is well-formed: valid JSON, spans nested per
// peer track, and every participant/reconciler span named as on the
// wall timeline of the same run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/trace.h"
#include "common/trace_check.h"
#include "sim/cdss.h"

namespace orchestra::sim {
namespace {

CdssConfig SmallConfig(StoreKind store) {
  CdssConfig cfg;
  cfg.participants = 8;
  cfg.store = store;
  cfg.rounds = 3;
  cfg.txns_between_recons = 2;
  return cfg;
}

std::vector<std::pair<uint32_t, uint64_t>> Sorted(const core::TxnIdSet& ids) {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  for (const core::TransactionId& id : ids) out.emplace_back(id.origin, id.seq);
  std::sort(out.begin(), out.end());
  return out;
}

TEST(TraceDeterminismTest, TracingDoesNotChangeDecisions) {
  for (StoreKind kind : {StoreKind::kCentral, StoreKind::kDht}) {
    if (Tracer::Global().enabled()) Tracer::Global().Disable();
    auto quiet = Cdss::Make(SmallConfig(kind));
    ASSERT_TRUE(quiet.ok());
    auto quiet_result = (*quiet)->Run();
    ASSERT_TRUE(quiet_result.ok()) << quiet_result.status().ToString();

    const std::string path =
        ::testing::TempDir() + "/trace_determinism.json";
    Tracer::Global().Enable(path);
    auto traced = Cdss::Make(SmallConfig(kind));
    ASSERT_TRUE(traced.ok());
    auto traced_result = (*traced)->Run();
    ASSERT_TRUE(traced_result.ok()) << traced_result.status().ToString();
    EXPECT_GT(Tracer::Global().event_count(), 0u);
    Tracer::Global().Disable();
    std::remove(path.c_str());

    EXPECT_EQ(traced_result->accepted, quiet_result->accepted);
    EXPECT_EQ(traced_result->rejected, quiet_result->rejected);
    EXPECT_EQ(traced_result->deferred, quiet_result->deferred);
    EXPECT_EQ(traced_result->state_ratio, quiet_result->state_ratio);
    for (size_t i = 0; i < (*quiet)->participant_count(); ++i) {
      EXPECT_EQ(Sorted((*traced)->participant(i).applied()),
                Sorted((*quiet)->participant(i).applied()))
          << "peer " << i;
      EXPECT_EQ(Sorted((*traced)->participant(i).rejected()),
                Sorted((*quiet)->participant(i).rejected()))
          << "peer " << i;
    }
  }
}

TEST(TraceDeterminismTest, WholeRunMetricsBlockCountsThisRun) {
  auto sim = Cdss::Make(SmallConfig(StoreKind::kCentral));
  ASSERT_TRUE(sim.ok());
  auto result = (*sim)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The instrumented layers actually moved: one reconciliation per peer
  // per round, and the store saw this run's publishes.
  EXPECT_EQ(result->metrics.at("reconcile.rounds"), 8 * 3);
  EXPECT_GT(result->metrics.at("store.central.fetches"), 0);
}

// Span names from the participant and reconciler layers; store spans
// and cdss.round have no peer context and stay on the wall clock only.
std::set<std::string> PeerSpanNames(
    const std::vector<testing::ParsedEvent>& events) {
  std::set<std::string> names;
  for (const testing::ParsedEvent& e : events) {
    if (e.phase != 'B') continue;
    if (e.name.rfind("participant.", 0) == 0 ||
        e.name.rfind("reconcile.", 0) == 0) {
      names.insert(e.name);
    }
  }
  return names;
}

void CheckSimTimeline(CdssConfig cfg) {
  cfg.sim_trace = true;
  if (Tracer::Global().enabled()) Tracer::Global().Disable();
  const std::string path = ::testing::TempDir() + "/sim_timeline_wall.json";
  Tracer::Global().Enable(path);
  auto cdss = Cdss::Make(cfg);
  ASSERT_TRUE(cdss.ok()) << cdss.status().ToString();
  auto result = (*cdss)->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  if (cfg.fault.failure_probability > 0) {
    EXPECT_GT(result->faults_injected, 0u);
  }
  Tracer::Global().Disable();
  const std::string wall_json = testing::ReadFile(path);
  std::remove(path.c_str());
  const std::string sim_json = (*cdss)->sim_tracer()->ToJson();

  ASSERT_TRUE(testing::JsonScanner(sim_json).Valid());
  const std::vector<testing::ParsedEvent> sim =
      testing::ParseEvents(sim_json);
  EXPECT_TRUE(testing::SpansNestPerTrack(sim));
  const std::set<std::string> sim_names = PeerSpanNames(sim);
  EXPECT_EQ(sim_names.count("reconcile.phase.analysis"), 1u);
  EXPECT_EQ(sim_names.count("reconcile.record_decisions"), 1u);

  ASSERT_TRUE(testing::JsonScanner(wall_json).Valid());
  const std::set<std::string> wall_names =
      PeerSpanNames(testing::ParseEvents(wall_json));
  for (const std::string& name : sim_names) {
    EXPECT_EQ(wall_names.count(name), 1u)
        << name << " is on the simulated timeline only";
  }
}

TEST(TraceDeterminismTest, SimTimelineNestsCentral) {
  CheckSimTimeline(SmallConfig(StoreKind::kCentral));
}

TEST(TraceDeterminismTest, SimTimelineNestsDht) {
  CheckSimTimeline(SmallConfig(StoreKind::kDht));
}

TEST(TraceDeterminismTest, SimTimelineNestsUnderFaults) {
  CdssConfig cfg = SmallConfig(StoreKind::kDht);
  cfg.fault.failure_probability = 0.05;
  cfg.fault.seed = 11;
  CheckSimTimeline(cfg);
}

}  // namespace
}  // namespace orchestra::sim
