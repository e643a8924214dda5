#ifndef PERFBENCH_DRIVER_CONFEDERATION_H_
#define PERFBENCH_DRIVER_CONFEDERATION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/update_store.h"
#include "driver/ledger.h"
#include "driver/stats.h"
#include "sim/cdss.h"
#include "workload/swissprot.h"

namespace perfbench {

using orchestra::Result;
using orchestra::Status;
namespace core = orchestra::core;
namespace sim = orchestra::sim;

/// One benchmark workload: a confederation shape run for a fixed number
/// of rounds. Per-reconciliation cost grows with history, so an episode
/// is always the same rounds; a run repeats whole episodes.
struct WorkloadSpec {
  std::string name;
  sim::StoreKind store = sim::StoreKind::kCentral;
  sim::TrustTopology topology = sim::TrustTopology::kUniform;
  size_t transaction_size = 1;
  /// Transactions each peer executes per turn (the paper's RI).
  size_t interval = 2;
  size_t participants = 16;
  /// Rounds run during set-up, untimed.
  size_t warmup_rounds = 2;
  /// Rounds whose turns are timed.
  size_t timed_rounds = 32;
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Seed of a run's k-th workload draw; draw 0 is the run's own seed.
uint64_t EpisodeSeed(uint64_t seed, int k);

/// The CdssConfig a workload runs with: serial reconciler, delta fetch,
/// provenance on, no faults.
sim::CdssConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed);

/// Per-call costs the store wrapper saw while tracing.
struct StoreCallStats {
  int64_t publish_calls = 0;
  int64_t publish_sim_us = 0;
  int64_t fetch_calls = 0;
  int64_t fetch_sim_us = 0;
  int64_t fetch_messages = 0;
  int64_t fetch_bytes = 0;
  int64_t fetch_txns = 0;

  StoreCallStats& operator+=(const StoreCallStats& o);
};

/// The benchmark's update store: forwards every call to the
/// confederation's store. With a recorder attached it wraps each call in
/// a span and reads the store's per-peer accounting around it; without
/// one it only forwards.
class TimedStore final : public core::UpdateStore,
                         public core::NetworkCentricStore {
 public:
  explicit TimedStore(core::UpdateStore* inner);

  void set_recorder(SpanRecorder* recorder) { recorder_ = recorder; }
  const StoreCallStats& call_stats() const { return calls_; }

  Status RegisterParticipant(core::ParticipantId peer,
                             const core::TrustPolicy* policy) override;
  Result<core::Epoch> Publish(core::ParticipantId peer,
                              std::vector<core::Transaction> txns) override;
  Result<core::ReconcileFetch> BeginReconciliation(
      core::ParticipantId peer) override;
  Result<core::NetworkCentricFetch> BeginNetworkCentricReconciliation(
      core::ParticipantId peer) override;
  Status RecordDecisions(
      core::ParticipantId peer, int64_t recno,
      const std::vector<core::TransactionId>& applied,
      const std::vector<core::TransactionId>& rejected) override;
  Status RecordProvenance(
      core::ParticipantId peer, int64_t recno,
      const std::vector<core::ProvenanceRecord>& records) override;
  Result<core::RecoveryBundle> FetchRecoveryState(
      core::ParticipantId peer) const override;
  Result<core::RecoveryBundle> Bootstrap(core::ParticipantId new_peer,
                                         core::ParticipantId source) override;
  core::StoreStats StatsFor(core::ParticipantId peer) const override;
  std::string_view name() const override { return inner_->name(); }

 private:
  core::UpdateStore* inner_;
  core::NetworkCentricStore* network_centric_;
  SpanRecorder* recorder_ = nullptr;
  StoreCallStats calls_;
};

/// What the timed rounds of one or more pooled episodes measured.
struct EpisodeStats {
  int64_t episodes = 0;
  int64_t setup_ns = 0;
  /// Wall and thread-CPU time of the timed rounds as a whole, generator
  /// and bookkeeping included; their gap is time the thread waited.
  int64_t timed_wall_ns = 0;
  int64_t timed_cpu_ns = 0;
  /// One sample per reconciliation / publish.
  std::vector<double> recon_wall_ms;
  std::vector<double> recon_time_ms;  // wall + simulated store network
  std::vector<double> publish_time_ms;
  RateMeter rate;  // reconciliations per second of system time
  int64_t attempted = 0;  // Publish and Reconcile calls
  int64_t failed = 0;
  /// Reconciliations whose accepted + rejected + deferred differed from
  /// fetched + reconsidered.
  int64_t accounting_mismatches = 0;
  /// Store accounting (StatsFor) summed over every timed turn.
  core::StoreStats traffic;
  int64_t fetched = 0;
  int64_t reconsidered = 0;
  int64_t accepted = 0;
  int64_t rejected = 0;
  int64_t dilemmas = 0;
  int64_t apply_failed = 0;
  core::FetchStats fetch;
  StoreCallStats store_calls;  // traced episodes only
  LedgerSummary ledger;        // traced episodes only
  /// Metrics-registry counter movement over the timed rounds.
  std::map<std::string, int64_t> counters;
  /// Decision digest after the last round (see DecisionDigest).
  std::string digest;

  /// Pools another episode's measurements into this one (the digest
  /// stays this one's).
  void Add(const EpisodeStats& other);
  /// Registry counter movement, 0 when the counter never moved.
  int64_t Counter(const std::string& name) const;
  int64_t reconciliations() const { return rate.completed(); }
};

/// A confederation driven from outside through public calls only: each
/// peer's turn generates and executes `interval` transactions, then
/// publishes and reconciles through the TimedStore. Closed loop and
/// single-threaded — a turn starts when the previous one has finished.
class Confederation {
 public:
  static Result<std::unique_ptr<Confederation>> Make(sim::CdssConfig config);

  /// Runs `rounds` round-robin rounds, adding what they measured to
  /// `stats`. A non-null recorder traces every turn.
  Status RunRounds(size_t rounds, EpisodeStats* stats,
                   SpanRecorder* recorder);

  sim::Cdss& cdss() { return *cdss_; }
  TimedStore& store() { return *store_; }

 private:
  explicit Confederation(std::unique_ptr<sim::Cdss> cdss);
  Status Turn(size_t index, EpisodeStats* stats, SpanRecorder* recorder);

  std::unique_ptr<sim::Cdss> cdss_;
  std::unique_ptr<TimedStore> store_;
  std::unique_ptr<orchestra::workload::SwissProtWorkload> generator_;
};

/// Every peer's sorted applied and rejected transaction ids plus the
/// state ratio, in canonical text form.
std::string DecisionText(sim::Cdss& cdss);
/// 64-bit FNV-1a of DecisionText, as 16 hex digits.
std::string DecisionDigest(sim::Cdss& cdss);

/// Builds the confederation and runs its warm-up rounds. `*setup_ns`
/// receives their time in the paper's model: the wall time of both plus
/// the simulated network time the store charged the peers meanwhile.
Result<std::unique_ptr<Confederation>> SetUp(const WorkloadSpec& spec,
                                             uint64_t seed, int64_t* setup_ns);

/// One episode: SetUp, then the timed rounds.
Result<EpisodeStats> RunEpisode(const WorkloadSpec& spec, uint64_t seed,
                                SpanRecorder* recorder);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_CONFEDERATION_H_
