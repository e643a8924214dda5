// The benchmark drives a confederation from outside, through its own
// store wrapper. These tests show that doing so changes nothing: the
// per-peer decisions and the state ratio match sim::Cdss::Run on the
// same configuration, traced or not.

#include "driver/confederation.h"

#include <gtest/gtest.h>

#include <string>

namespace perfbench {
namespace {

WorkloadSpec SmallSpec(sim::StoreKind store, sim::TrustTopology topology,
                       size_t transaction_size) {
  WorkloadSpec spec;
  spec.name = "small";
  spec.store = store;
  spec.topology = topology;
  spec.transaction_size = transaction_size;
  spec.participants = 6;
  spec.warmup_rounds = 2;
  spec.timed_rounds = 6;
  return spec;
}

std::string ReferenceDecisions(const WorkloadSpec& spec, uint64_t seed) {
  auto cdss = sim::Cdss::Make(MakeConfig(spec, seed));
  EXPECT_TRUE(cdss.ok()) << cdss.status().ToString();
  auto result = (*cdss)->Run();
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return DecisionText(**cdss);
}

std::string DriverDecisions(const WorkloadSpec& spec, uint64_t seed,
                            bool traced, EpisodeStats* stats) {
  auto confederation = Confederation::Make(MakeConfig(spec, seed));
  EXPECT_TRUE(confederation.ok()) << confederation.status().ToString();
  SpanRecorder recorder;
  EXPECT_TRUE((*confederation)
                  ->RunRounds(spec.warmup_rounds + spec.timed_rounds, stats,
                              traced ? &recorder : nullptr)
                  .ok());
  if (traced) {
    const LedgerSummary ledger = SummarizeLedger(recorder.spans());
    EXPECT_EQ(ledger.turns, static_cast<int64_t>(
                                spec.participants *
                                (spec.warmup_rounds + spec.timed_rounds)));
    EXPECT_EQ(ledger.unbalanced_turns, 0);
    EXPECT_EQ(ledger.orphan_spans, 0);
    EXPECT_GT(ledger.of(Layer::kStoreFetch).count, 0);
    EXPECT_GT(ledger.of(Layer::kStoreRecordProvenance).count, 0);
  }
  return DecisionText((*confederation)->cdss());
}

class DriverEquivalenceTest
    : public ::testing::TestWithParam<
          std::tuple<sim::StoreKind, sim::TrustTopology, size_t>> {};

TEST_P(DriverEquivalenceTest, MatchesCdssRun) {
  const auto [store, topology, size] = GetParam();
  const WorkloadSpec spec = SmallSpec(store, topology, size);
  for (uint64_t seed : {7u, 42u}) {
    const std::string reference = ReferenceDecisions(spec, seed);
    ASSERT_NE(reference.find("applied X"), std::string::npos);
    EpisodeStats untraced;
    EpisodeStats traced;
    EXPECT_EQ(DriverDecisions(spec, seed, false, &untraced), reference)
        << "seed " << seed;
    EXPECT_EQ(DriverDecisions(spec, seed, true, &traced), reference)
        << "seed " << seed;
    EXPECT_EQ(untraced.failed, 0);
    EXPECT_EQ(untraced.accounting_mismatches, 0);
    EXPECT_EQ(untraced.reconciliations(),
              static_cast<int64_t>(spec.participants *
                                   (spec.warmup_rounds + spec.timed_rounds)));
    EXPECT_EQ(untraced.fetched, traced.fetched);
    EXPECT_EQ(untraced.traffic.messages, traced.traffic.messages);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stores, DriverEquivalenceTest,
    ::testing::Values(
        std::make_tuple(sim::StoreKind::kCentral,
                        sim::TrustTopology::kUniform, size_t{1}),
        std::make_tuple(sim::StoreKind::kDht, sim::TrustTopology::kTiered,
                        size_t{1}),
        std::make_tuple(sim::StoreKind::kCentral, sim::TrustTopology::kTiered,
                        size_t{2})));

TEST(DecisionDigestTest, EpisodeDigestIsStableAcrossTracing) {
  WorkloadSpec spec = SmallSpec(sim::StoreKind::kCentral,
                                sim::TrustTopology::kUniform, 1);
  SpanRecorder recorder;
  auto plain = RunEpisode(spec, 3, nullptr);
  auto traced = RunEpisode(spec, 3, &recorder);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(traced.ok());
  EXPECT_EQ(plain->digest.size(), 16u);
  EXPECT_EQ(plain->digest, traced->digest);
  EXPECT_EQ(traced->episodes, 1);
  EXPECT_EQ(traced->ledger.unbalanced_turns, 0);
  EXPECT_GT(traced->store_calls.fetch_calls, 0);
  EXPECT_EQ(plain->store_calls.fetch_calls, 0);
  auto other_seed = RunEpisode(spec, 4, nullptr);
  ASSERT_TRUE(other_seed.ok());
  EXPECT_NE(plain->digest, other_seed->digest);
}

// Slow (about 10 s): run by `run.py --selftest`, skipped before each
// measurement. A 16-peer, size-2, tiered central confederation at seed 42
// accepts a transaction whose modify pre-image has gone stale by the time
// it applies; the driver must count that kApplyFailed verdict.
TEST(SlowApplyFailedTest, CountsApplyFailedVerdicts) {
  WorkloadSpec spec;
  spec.store = sim::StoreKind::kCentral;
  spec.topology = sim::TrustTopology::kTiered;
  spec.transaction_size = 2;
  spec.warmup_rounds = 0;
  spec.timed_rounds = 64;
  auto confederation = Confederation::Make(MakeConfig(spec, 42));
  ASSERT_TRUE(confederation.ok());
  EpisodeStats stats;
  ASSERT_TRUE(
      (*confederation)->RunRounds(spec.timed_rounds, &stats, nullptr).ok());
  int64_t logged = 0;
  sim::Cdss& cdss = (*confederation)->cdss();
  for (size_t i = 0; i < cdss.participant_count(); ++i) {
    for (const core::ProvenanceRecord& rec :
         cdss.participant(i).provenance_log()) {
      if (rec.cause == core::ProvenanceCause::kApplyFailed) ++logged;
    }
  }
  EXPECT_GE(stats.apply_failed, 1);
  EXPECT_EQ(stats.apply_failed, logged);
  EXPECT_EQ(stats.accounting_mismatches, 0);
}

}  // namespace
}  // namespace perfbench
