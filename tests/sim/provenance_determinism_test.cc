// The provenance/tracing determinism contract: with the same seed, two
// runs of the same confederation produce byte-identical provenance
// JSONL and byte-identical simulated-time traces — on both stores, in
// delta fetch mode, with fault injection (and its retry machinery)
// armed. Also: switching tracing on must not change the decisions.
#include <gtest/gtest.h>

#include <string>

#include "core/provenance.h"
#include "sim/cdss.h"

namespace orchestra::sim {
namespace {

struct RunOutput {
  std::string jsonl;
  std::string trace;
  size_t records = 0;
  size_t accepted = 0;
  size_t deferred = 0;
};

RunOutput RunOnce(StoreKind kind, bool sim_trace = true) {
  CdssConfig cfg;
  cfg.participants = 6;
  cfg.rounds = 4;
  cfg.txns_between_recons = 2;
  cfg.seed = 7;
  cfg.store = kind;
  cfg.fetch_mode = core::FetchMode::kDelta;
  cfg.sim_trace = sim_trace;
  cfg.fault.failure_probability = 0.05;
  cfg.fault.seed = 11;
  auto cdss = Cdss::Make(cfg);
  EXPECT_TRUE(cdss.ok()) << cdss.status().ToString();
  auto result = (*cdss)->Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  RunOutput out;
  for (size_t i = 0; i < (*cdss)->participant_count(); ++i) {
    const auto& log = (*cdss)->participant(i).provenance_log();
    out.jsonl += core::ToJsonLines(log);
    out.records += log.size();
  }
  if (sim_trace) out.trace = (*cdss)->sim_tracer()->ToJson();
  out.accepted = result->accepted;
  out.deferred = result->deferred;
  return out;
}

TEST(ProvenanceDeterminismTest, CentralRunsAreByteIdentical) {
  const RunOutput a = RunOnce(StoreKind::kCentral);
  const RunOutput b = RunOnce(StoreKind::kCentral);
  EXPECT_GT(a.records, 0u);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
}

TEST(ProvenanceDeterminismTest, DhtRunsAreByteIdentical) {
  const RunOutput a = RunOnce(StoreKind::kDht);
  const RunOutput b = RunOnce(StoreKind::kDht);
  EXPECT_GT(a.records, 0u);
  EXPECT_EQ(a.jsonl, b.jsonl);
  EXPECT_FALSE(a.trace.empty());
  EXPECT_EQ(a.trace, b.trace);
}

TEST(ProvenanceDeterminismTest, TracingDoesNotChangeDecisions) {
  const RunOutput traced = RunOnce(StoreKind::kCentral, true);
  const RunOutput quiet = RunOnce(StoreKind::kCentral, false);
  EXPECT_EQ(traced.jsonl, quiet.jsonl);
  EXPECT_EQ(traced.accepted, quiet.accepted);
  EXPECT_EQ(traced.deferred, quiet.deferred);
}

}  // namespace
}  // namespace orchestra::sim
