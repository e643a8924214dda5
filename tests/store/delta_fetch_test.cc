// Delta-fetch equivalence: the fetch cache and delta windows
// (core::FetchMode::kDelta) are a pure cost optimization. Multi-round
// runs with interleaved publishes — fault-free, with injected faults
// (the fault-sweep composition), and under DHT node churn — must
// produce per-peer decision sets bit-identical to the kFull reference.
// kFull shares the fetch pipeline it checks, so the two stores — which
// share no fetch code — are also diffed against each other. The DHT's
// multi-gets must visibly carry more than one key each, or the batching
// layer is dead code.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/cdss.h"

namespace orchestra::sim {
namespace {

constexpr core::FetchMode kModes[] = {core::FetchMode::kFull,
                                      core::FetchMode::kDelta};

CdssConfig BaseConfig(StoreKind kind) {
  CdssConfig cfg;
  cfg.store = kind;
  cfg.participants = 10;
  cfg.rounds = 4;
  cfg.txns_between_recons = 2;
  return cfg;
}

std::vector<std::pair<uint32_t, uint64_t>> Sorted(const core::TxnIdSet& ids) {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  for (const core::TransactionId& id : ids) out.emplace_back(id.origin, id.seq);
  std::sort(out.begin(), out.end());
  return out;
}

struct ModeOutcome {
  CdssResult result;
  std::vector<std::pair<std::vector<std::pair<uint32_t, uint64_t>>,
                        std::vector<std::pair<uint32_t, uint64_t>>>>
      peers;  // (applied, rejected) per participant
};

ModeOutcome RunMode(CdssConfig cfg, core::FetchMode mode) {
  cfg.fetch_mode = mode;
  auto sim = Cdss::Make(cfg);
  EXPECT_TRUE(sim.ok());
  auto result = (*sim)->Run();
  EXPECT_TRUE(result.ok()) << core::FetchModeName(mode) << ": "
                           << result.status().ToString();
  ModeOutcome out;
  out.result = *result;
  for (size_t i = 0; i < (*sim)->participant_count(); ++i) {
    const core::Participant& p = (*sim)->participant(i);
    out.peers.emplace_back(Sorted(p.applied()), Sorted(p.rejected()));
  }
  return out;
}

class DeltaFetchTest : public ::testing::TestWithParam<StoreKind> {};

TEST_P(DeltaFetchTest, ModesProduceIdenticalDecisions) {
  const ModeOutcome baseline = RunMode(BaseConfig(GetParam()),
                                       core::FetchMode::kFull);
  const ModeOutcome outcome = RunMode(BaseConfig(GetParam()),
                                      core::FetchMode::kDelta);
  EXPECT_EQ(outcome.result.accepted, baseline.result.accepted);
  EXPECT_EQ(outcome.result.rejected, baseline.result.rejected);
  EXPECT_EQ(outcome.result.deferred, baseline.result.deferred);
  EXPECT_EQ(outcome.result.state_ratio, baseline.result.state_ratio);
  EXPECT_EQ(outcome.peers, baseline.peers);
}

TEST_P(DeltaFetchTest, ModesProduceIdenticalDecisionsUnderFaults) {
  // The fault-sweep composition: probabilistic faults over the store's
  // side-effecting operations. Fault *draws* differ across modes (the
  // modes make different numbers of side-effecting calls), but every
  // faulted run must still converge to the same final decisions.
  const ModeOutcome reference = RunMode(BaseConfig(GetParam()),
                                        core::FetchMode::kFull);
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (core::FetchMode mode : kModes) {
      CdssConfig cfg = BaseConfig(GetParam());
      cfg.fault.failure_probability = 0.01;
      cfg.fault.seed = seed;
      const ModeOutcome outcome = RunMode(cfg, mode);
      EXPECT_EQ(outcome.peers, reference.peers)
          << core::FetchModeName(mode) << " seed " << seed;
      EXPECT_EQ(outcome.result.state_ratio, reference.result.state_ratio)
          << core::FetchModeName(mode) << " seed " << seed;
    }
  }
}

TEST(DeltaFetchDhtTest, ModesProduceIdenticalDecisionsUnderChurn) {
  CdssConfig churned = BaseConfig(StoreKind::kDht);
  churned.rounds = 6;
  churned.participants = 12;
  churned.replication_factor = 3;
  churned.churn.enabled = true;
  churned.churn.seed = 5;
  churned.churn.crash_probability = 0.05;
  churned.churn.join_probability = 0.5;
  churned.churn.leave_probability = 0.25;
  churned.churn.min_live_nodes = 6;

  CdssConfig quiet = churned;
  quiet.churn = ChurnConfig{};
  const ModeOutcome baseline = RunMode(quiet, core::FetchMode::kFull);
  for (core::FetchMode mode : kModes) {
    const ModeOutcome outcome = RunMode(churned, mode);
    EXPECT_EQ(outcome.peers, baseline.peers) << core::FetchModeName(mode);
    EXPECT_EQ(outcome.result.state_ratio, baseline.result.state_ratio)
        << core::FetchModeName(mode);
  }
}

TEST(DeltaFetchDhtTest, BatchedMultiGetReducesMessages) {
  // Both modes fetch through per-owner multi-gets, so each multi-get
  // must carry more than one key on average: fewer multi-get messages
  // (the registry mirror of the summed FetchStats::batched_messages)
  // than transactions shipped. Same schedule, same decisions — and delta,
  // which requests only the new window and skips what the peer already
  // applied, sends fewer messages than the full reference.
  const ModeOutcome full = RunMode(BaseConfig(StoreKind::kDht),
                                   core::FetchMode::kFull);
  const ModeOutcome delta = RunMode(BaseConfig(StoreKind::kDht),
                                    core::FetchMode::kDelta);
  for (const ModeOutcome* outcome : {&full, &delta}) {
    const auto& metrics = outcome->result.metrics;
    const int64_t batched = metrics.at("store.dht.multi_get_batches");
    EXPECT_GT(batched, 0);
    EXPECT_LT(batched, metrics.at("store.dht.shipped_txns"));
  }
  EXPECT_LT(delta.result.messages, full.result.messages);
  EXPECT_EQ(delta.peers, full.peers);
}

// The stores share no fetch code — rows and stored procedures on one
// side, controllers and multi-gets over a ring on the other — so a
// fault-free run on each is an independent reference for the other's
// only fetch path. Each config shapes the fetches differently: deferral
// backlogs (uniform), resolved conflicts (tiered, star), multi-update
// extensions (size 2) and store-side analysis (network-centric).
struct CrossStoreCase {
  const char* name;
  size_t participants;
  size_t rounds;
  size_t txns_between_recons;
  TrustTopology topology;
  size_t transaction_size;
  bool network_centric;
};

void PrintTo(const CrossStoreCase& c, std::ostream* os) { *os << c.name; }

class CrossStoreTest : public ::testing::TestWithParam<CrossStoreCase> {};

TEST_P(CrossStoreTest, CentralAndDhtDecideIdentically) {
  const CrossStoreCase& c = GetParam();
  CdssConfig cfg;
  cfg.participants = c.participants;
  cfg.rounds = c.rounds;
  cfg.txns_between_recons = c.txns_between_recons;
  cfg.topology = c.topology;
  cfg.transaction_size = c.transaction_size;
  cfg.network_centric = c.network_centric;
  cfg.store = StoreKind::kCentral;
  const ModeOutcome central = RunMode(cfg, core::FetchMode::kDelta);
  cfg.store = StoreKind::kDht;
  const ModeOutcome dht = RunMode(cfg, core::FetchMode::kDelta);
  EXPECT_GT(central.result.accepted, 0u);
  EXPECT_EQ(dht.result.accepted, central.result.accepted);
  EXPECT_EQ(dht.result.rejected, central.result.rejected);
  EXPECT_EQ(dht.result.deferred, central.result.deferred);
  EXPECT_EQ(dht.result.state_ratio, central.result.state_ratio);
  EXPECT_EQ(dht.peers, central.peers);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, CrossStoreTest,
    ::testing::Values(
        CrossStoreCase{"Uniform10x4", 10, 4, 2, TrustTopology::kUniform, 1,
                       false},
        CrossStoreCase{"Uniform16x16", 16, 16, 2, TrustTopology::kUniform, 1,
                       false},
        CrossStoreCase{"Tiered16x16", 16, 16, 2, TrustTopology::kTiered, 1,
                       false},
        CrossStoreCase{"Star12x8", 12, 8, 2, TrustTopology::kStar, 1, false},
        CrossStoreCase{"Size2_10x6Ri4", 10, 6, 4, TrustTopology::kUniform, 2,
                       false},
        CrossStoreCase{"NetworkCentric10x6", 10, 6, 2, TrustTopology::kUniform,
                       1, true}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(DeltaFetchCentralTest, DeltaServesRepeatWindowsFromTheCache) {
  // Drive rounds manually so per-reconciliation fetch stats are visible:
  // under kDelta the central store admits transactions to the arena at
  // publish time, so window scans decode nothing and later peers hit.
  CdssConfig cfg = BaseConfig(StoreKind::kCentral);
  cfg.fetch_mode = core::FetchMode::kDelta;
  auto sim = Cdss::Make(cfg);
  ASSERT_TRUE(sim.ok());
  core::FetchStats total;
  for (size_t round = 0; round < cfg.rounds; ++round) {
    for (size_t i = 0; i < (*sim)->participant_count(); ++i) {
      auto report = (*sim)->StepParticipant(i);
      ASSERT_TRUE(report.ok()) << report.status().ToString();
      total += report->fetch_stats;
    }
  }
  EXPECT_GT(total.cache_hits, 0);
  EXPECT_EQ(total.decoded, 0);
}

INSTANTIATE_TEST_SUITE_P(AllStores, DeltaFetchTest,
                         ::testing::Values(StoreKind::kCentral,
                                           StoreKind::kDht),
                         [](const auto& info) {
                           return info.param == StoreKind::kCentral ? "Central"
                                                                    : "Dht";
                         });

}  // namespace
}  // namespace orchestra::sim
