// Differential test of incremental reconsideration: a confederation whose
// participants carry untouched deferred verdicts across rounds must match,
// round by round, a twin whose participants drop every carried verdict
// before each turn and so analyse their whole deferred backlog. Randomized
// schedules cover both stores, uniform and tiered trust, deletions (and
// with them foreign-key parents), user resolutions, network-centric mode,
// injected faults and DHT membership churn.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/participant_test_peer.h"
#include "core/provenance.h"
#include "sim/cdss.h"

namespace orchestra::sim {
namespace {

using core::ParticipantTestPeer;

struct Schedule {
  CdssConfig config;
  bool resolve = false;  // resolve a pending conflict group now and then
  bool churn = false;    // DHT joins and crashes at round boundaries
};

std::string Describe(const Schedule& s) {
  const CdssConfig& c = s.config;
  return std::string(c.store == StoreKind::kDht ? "dht" : "central") +
         (c.topology == TrustTopology::kTiered ? " tiered" : " uniform") +
         (c.network_centric ? " network-centric" : "") +
         (c.workload.delete_fraction > 0 ? " deletions" : "") +
         (c.fault.failure_probability > 0 ? " faults" : "") +
         (s.resolve ? " resolve" : "") + (s.churn ? " churn" : "") +
         " seed=" + std::to_string(c.seed) +
         " peers=" + std::to_string(c.participants) +
         " size=" + std::to_string(c.transaction_size) +
         " ri=" + std::to_string(c.txns_between_recons);
}

Schedule RandomSchedule(uint64_t seed) {
  Rng rng(seed);
  Schedule s;
  CdssConfig& c = s.config;
  c.seed = seed;
  c.participants = 3 + rng.NextBounded(4);
  c.rounds = 8 + rng.NextBounded(6);
  c.transaction_size = 1 + rng.NextBounded(2);
  c.txns_between_recons = 1 + rng.NextBounded(4);
  c.store = rng.NextBool(0.5) ? StoreKind::kDht : StoreKind::kCentral;
  c.topology = rng.NextBool(0.5) ? TrustTopology::kTiered
                                 : TrustTopology::kUniform;
  c.network_centric = rng.NextBool(0.3);
  // Small pools keep conflicts (and so a backlog) coming and touch it
  // often; large ones leave most of the backlog untouched, to be carried.
  c.workload.key_pool = 60 + rng.NextBounded(1000);
  c.workload.key_zipf_s = rng.NextBool(0.5) ? 1.0 : 0.5;
  c.workload.crossrefs_per_insert = 2.0;
  if (rng.NextBool(0.5)) c.workload.delete_fraction = 0.25;
  if (rng.NextBool(0.3)) {
    c.fault.failure_probability = 0.05;
    c.fault.seed = seed + 1;
  }
  s.resolve = rng.NextBool(0.4);
  s.churn = c.store == StoreKind::kDht && rng.NextBool(0.5);
  return s;
}

std::vector<std::string> GroupStrings(const core::Participant& p) {
  std::vector<std::string> out;
  for (const core::ConflictGroup& g : p.pending_conflicts()) {
    out.push_back(g.ToString());
  }
  return out;
}

// Membership events applied identically to both twins.
void Churn(Cdss& cdss, size_t round) {
  store::DhtStore* dht = cdss.dht_store();
  ASSERT_NE(dht, nullptr);
  if (round % 3 == 1) {
    ASSERT_TRUE(dht->JoinNode().ok());
  }
  if (round % 2 == 0 && dht->live_node_count() > 5) {
    for (size_t node = 0; node < dht->ring().size(); ++node) {
      if (!dht->ring().IsLive(node)) continue;
      ASSERT_TRUE(dht->CrashNode(node).ok());
      break;
    }
  }
}

// Runs `s` on a carrying confederation and a full-reconsideration twin,
// comparing every turn. Returns the verdicts the carrying side carried.
size_t RunTwins(const Schedule& s) {
  auto carrying = Cdss::Make(s.config);
  auto full = Cdss::Make(s.config);
  EXPECT_TRUE(carrying.ok() && full.ok()) << Describe(s);
  if (!carrying.ok() || !full.ok()) return 0;
  Cdss& a = **carrying;
  Cdss& b = **full;
  size_t carried = 0;
  for (size_t round = 0; round < s.config.rounds; ++round) {
    if (s.churn && round > 0) {
      Churn(a, round);
      Churn(b, round);
    }
    for (size_t i = 0; i < a.participant_count(); ++i) {
      const std::string where = Describe(s) + " round=" +
                                std::to_string(round) +
                                " peer=" + std::to_string(i);
      ParticipantTestPeer::ForgetCarriedVerdicts(b.participant(i));
      auto ra = a.StepParticipant(i);
      auto rb = b.StepParticipant(i);
      EXPECT_EQ(ra.ok(), rb.ok()) << where;
      if (!ra.ok() || !rb.ok()) {
        EXPECT_EQ(ra.status().ToString(), rb.status().ToString()) << where;
        continue;
      }
      EXPECT_EQ(rb->carried, 0u) << where;
      carried += ra->carried;
      EXPECT_EQ(ra->fetched, rb->fetched) << where;
      EXPECT_EQ(ra->reconsidered, rb->reconsidered) << where;
      EXPECT_EQ(ra->accepted, rb->accepted) << where;
      EXPECT_EQ(ra->rejected, rb->rejected) << where;
      EXPECT_EQ(ra->deferred, rb->deferred) << where;
      EXPECT_EQ(ra->open_conflict_groups, rb->open_conflict_groups) << where;
      EXPECT_EQ(core::ToJsonLines(ra->provenance),
                core::ToJsonLines(rb->provenance))
          << where;
      const core::Participant& pa = a.participant(i);
      const core::Participant& pb = b.participant(i);
      EXPECT_EQ(GroupStrings(pa), GroupStrings(pb)) << where;
      EXPECT_EQ(ParticipantTestPeer::Dirty(pa), ParticipantTestPeer::Dirty(pb))
          << where;
      EXPECT_EQ(ParticipantTestPeer::Deferred(pa),
                ParticipantTestPeer::Deferred(pb))
          << where;
      EXPECT_EQ(pa.applied_count(), pb.applied_count()) << where;
      EXPECT_EQ(pa.rejected_count(), pb.rejected_count()) << where;

      // A user resolution between turns: the same choice on both twins.
      if (s.resolve && (round + i) % 3 == 2 &&
          !pa.pending_conflicts().empty()) {
        const size_t options = pa.pending_conflicts().front().options.size();
        const std::optional<size_t> choice =
            round % 4 == 2 ? std::nullopt
                           : std::optional<size_t>(round % options);
        auto xa = a.participant(i).ResolveConflict(&a.store(), 0, choice);
        auto xb = b.participant(i).ResolveConflict(&b.store(), 0, choice);
        EXPECT_EQ(xa.ok(), xb.ok()) << where;
        if (xa.ok() && xb.ok()) {
          EXPECT_EQ(core::ToJsonLines(xa->provenance),
                    core::ToJsonLines(xb->provenance))
              << where << " (resolve)";
          EXPECT_EQ(xa->deferred, xb->deferred) << where << " (resolve)";
        }
      }
    }
  }
  return carried;
}

TEST(CarryDifferentialTest, RandomSchedulesMatchFullReconsideration) {
  size_t carried = 0;
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    carried += RunTwins(RandomSchedule(seed));
  }
  // The comparison means something only if verdicts were carried.
  EXPECT_GT(carried, 0u);
}

// The paper's §6 shape, where the backlog grows every round: most of it
// must be carried, and everything must still match.
TEST(CarryDifferentialTest, PaperShapeCarriesMostOfTheBacklog) {
  for (StoreKind store : {StoreKind::kCentral, StoreKind::kDht}) {
    Schedule s;
    s.config.participants = 8;
    s.config.rounds = 8;
    s.config.txns_between_recons = 2;
    s.config.seed = 5;
    s.config.store = store;
    EXPECT_GT(RunTwins(s), 0u) << Describe(s);
  }
}

}  // namespace
}  // namespace orchestra::sim
