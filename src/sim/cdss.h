#ifndef ORCHESTRA_SIM_CDSS_H_
#define ORCHESTRA_SIM_CDSS_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/fault_injector.h"
#include "common/result.h"
#include "common/trace.h"
#include "core/participant.h"
#include "core/update_store.h"
#include "net/sim_network.h"
#include "sim/metrics.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "store/dht_store.h"
#include "workload/swissprot.h"

namespace orchestra::sim {

enum class StoreKind { kCentral, kDht };

/// Seeded DHT node-churn schedule (StoreKind::kDht only): membership
/// events applied at round boundaries, interleaved with the
/// publish/reconcile schedule. Crash draws flow through a dedicated
/// FaultInjector at the "net.node_crash" site — one draw per live node
/// per boundary — so a given (seed, schedule) always kills the same
/// nodes; joins and graceful leaves come from a separate stream of the
/// same seed. Every event triggers the store's key-range re-replication
/// immediately, so no two events can compound against one replica group.
struct ChurnConfig {
  bool enabled = false;
  /// Per live node, per round boundary: probability the node crashes
  /// (abrupt — its state dies; replicas restore it).
  double crash_probability = 0.0;
  /// Per round boundary: probability one fresh node joins the ring.
  double join_probability = 0.0;
  /// Per round boundary: probability one random live node leaves
  /// gracefully (handing off its keys first).
  double leave_probability = 0.0;
  uint64_t seed = 1;
  /// The schedule never shrinks the ring below this many live nodes
  /// (it must stay above the replication factor for crashes to be
  /// survivable).
  size_t min_live_nodes = 4;
};

/// Shape of the confederation's trust relationships.
enum class TrustTopology {
  /// Everyone trusts everyone at the same priority (§6's setup — every
  /// conflict must be resolved manually).
  kUniform,
  /// Peers are striped into three authority tiers; updates from a
  /// tier-t peer are accepted at priority t. Cross-tier conflicts
  /// resolve automatically in favor of the higher tier.
  kTiered,
  /// Peer 0 is a curated hub trusted at a higher priority by everyone;
  /// all other peers are mutually trusted at priority 1.
  kStar,
};

/// Full-system configuration for one simulated confederation run,
/// mirroring the experimental setup of §6: N participants who all trust
/// one another at equal priority (so conflicts defer), publishing and
/// reconciling in a round-robin epoch schedule.
struct CdssConfig {
  size_t participants = 10;
  StoreKind store = StoreKind::kCentral;
  /// Use network-centric reconciliation (§5, Fig. 3): the store computes
  /// extensions, flattening and conflicts; the client only decides.
  bool network_centric = false;
  /// Function updates per transaction (Fig. 8's x-axis).
  size_t transaction_size = 1;
  /// Transactions published between two reconciliations of the same
  /// peer — the reconciliation interval RI (Figs. 9-10).
  size_t txns_between_recons = 4;
  /// Reconciliations each participant performs over the run.
  size_t rounds = 10;
  /// Mutual trust priority (equal everywhere per §6, so that conflicts
  /// "must be manually rather than automatically resolved").
  int trust_priority = 1;
  /// Trust topology; kUniform reproduces the paper's experiments.
  TrustTopology topology = TrustTopology::kUniform;
  /// Must be 1: reconciliation is serial. Kept only because the
  /// benchmark driver (perfbench/) sets it; Make rejects other values.
  size_t num_threads = 1;
  uint64_t seed = 42;
  workload::WorkloadConfig workload;
  net::NetworkConfig network;
  /// Fault injection over the store's side-effecting operations (storage
  /// writes for the central store, protocol messages for the DHT).
  /// Disabled by default (failure_probability 0 and fail_at_call 0).
  FaultInjectorConfig fault;
  /// Retry policy participants use when the store reports a transient
  /// (Unavailable) failure — an injected fault or a reaped epoch.
  core::ReconcileRetryOptions retry;
  /// Stuck-epoch reaping threshold passed to the store (see
  /// CentralStoreOptions / DhtStoreOptions).
  int stuck_epoch_reap_threshold = 3;
  /// How the store assembles reconciliation fetches (see core::FetchMode).
  /// kDelta is the shipping default; kFull is the reference it is diffed
  /// against (equivalence tests, the delta-sweep baseline) and the mode
  /// that keeps the central store's stored-row checksum path hot.
  core::FetchMode fetch_mode = core::FetchMode::kDelta;
  /// Replicas per DHT key (DhtStoreOptions::replication_factor); 1
  /// disables replication, so a node crash loses data.
  size_t replication_factor = 3;
  /// DHT node churn interleaved with the rounds (kDht only; rejected for
  /// the central store, which has no ring to churn).
  ChurnConfig churn;
  /// Run a DHT background scrub (verify + heal every replica) at every
  /// Nth round boundary; 0 disables. kDht only — the central store's
  /// rot is per-read, so there is nothing at rest to scrub.
  size_t scrub_interval_rounds = 0;
  /// Collect per-decision provenance through the reconciler and persist
  /// it store-side (core/provenance.h). On by default; the overhead
  /// sweep's control arm turns it off.
  bool record_provenance = true;
  /// Emit the deterministic simulated-time trace (common/trace.h):
  /// one track per peer plus per-message net.send/net.recv instants,
  /// timestamps taken from the per-endpoint simulated clocks — so the
  /// trace is bit-identical across same-seed runs. Also switched on by
  /// ORCH_SIM_TRACE=<path>, which sets sim_trace_path too (see Make).
  bool sim_trace = false;
  /// Where Run() writes the sim trace; empty keeps it in memory only
  /// (tests read sim_tracer() directly).
  std::string sim_trace_path;
};

/// Aggregated results of a run.
struct CdssResult {
  double state_ratio = 1.0;
  size_t reconciliations = 0;
  size_t transactions_published = 0;
  size_t accepted = 0;
  size_t rejected = 0;
  size_t deferred = 0;
  /// Fault-tolerance accounting: injected faults observed, operations
  /// that needed more than one attempt, and total simulated backoff.
  int64_t faults_injected = 0;
  int64_t retried_operations = 0;
  int64_t backoff_micros = 0;
  /// Churn accounting: membership events the schedule actually applied,
  /// and whether the replica-placement invariant held after every event.
  int64_t node_crashes = 0;
  int64_t node_joins = 0;
  int64_t node_leaves = 0;
  bool replication_invariant_ok = true;
  /// Integrity accounting: checksum-rejected reads caught at any site
  /// (replica, stored row, in-flight payload) and replicas healed (read-
  /// repair plus scrub).
  int64_t corrupt_reads_detected = 0;
  int64_t read_repairs = 0;
  /// Mean per-reconciliation times (microseconds).
  double avg_local_micros = 0;
  double avg_store_micros = 0;
  /// Totals per participant over the whole run (microseconds) — the
  /// quantity of Fig. 10.
  double total_local_micros_per_peer = 0;
  double total_store_micros_per_peer = 0;
  /// The same store time under stop-and-wait accounting, as the paper's
  /// prototype paid it: every message charged after the previous one
  /// (core::StoreStats::wire_micros) plus store CPU. Per reconciliation
  /// and per participant over the run, like the two above.
  double avg_store_wire_micros = 0;
  double total_store_wire_micros_per_peer = 0;
  int64_t messages = 0;
  int64_t bytes = 0;
  /// Movement of the process-wide metrics registry (common/metrics.h)
  /// during this run: counter deltas, zero deltas dropped. The registry
  /// is global and accumulates for the process lifetime; deltas isolate
  /// what *this* run actually did. Per-round, per-peer accounting lives
  /// on each core::ReconcileReport.
  std::map<std::string, int64_t> metrics;
};

/// A whole simulated CDSS: catalog, trust policies, participants, the
/// chosen update store, and the workload generator. Drives the epoch
/// schedule and collects the paper's metrics.
class Cdss {
 public:
  /// Builds and wires the confederation. Fails only on configuration
  /// errors.
  static Result<std::unique_ptr<Cdss>> Make(CdssConfig config);

  /// Runs the configured number of rounds: in each round every
  /// participant executes `txns_between_recons` transactions, publishes
  /// them, and reconciles.
  Result<CdssResult> Run();

  /// Runs a single peer's turn (used by tests for finer control).
  Result<core::ReconcileReport> StepParticipant(size_t index);

  core::Participant& participant(size_t index) { return *participants_[index]; }
  size_t participant_count() const { return participants_.size(); }
  core::UpdateStore& store() { return *store_; }
  const CdssConfig& config() const { return config_; }
  /// The fault injector threaded through the store (always present;
  /// inert when the config disables injection).
  FaultInjector& fault_injector() { return fault_injector_; }
  /// The DHT store when StoreKind::kDht was configured, else nullptr.
  store::DhtStore* dht_store() { return dht_; }
  /// The central store's storage engine when StoreKind::kCentral was
  /// configured, else nullptr. Tools and tests use it to inspect the
  /// durable per-peer tables ("dec:", "declog:", "prov:") directly.
  storage::StorageEngine* engine() { return engine_.get(); }
  /// The simulated-time tracer when sim_trace is on, else nullptr.
  Tracer* sim_tracer() {
    return config_.sim_trace ? &sim_tracer_ : nullptr;
  }

  /// Current state ratio over the Function relation.
  double CurrentStateRatio() const;

 private:
  explicit Cdss(CdssConfig config) : config_(std::move(config)) {}

  /// Applies one round boundary's worth of churn: a possible join, a
  /// possible graceful leave, then per-node crash draws through the
  /// "net.node_crash" site. Checks the replication invariant after each
  /// event and latches any violation into the running result.
  Status ApplyChurn();

  CdssConfig config_;
  db::Catalog catalog_;
  net::SimNetwork network_;
  /// Simulated-time event stream; populated only when config_.sim_trace.
  Tracer sim_tracer_{"sim"};
  FaultInjector fault_injector_;
  /// Dedicated injector for the churn schedule's crash draws; kept apart
  /// from fault_injector_ so message-loss faults and membership churn
  /// compose without perturbing each other's random streams.
  FaultInjector churn_injector_;
  Rng churn_rng_{0};
  store::DhtStore* dht_ = nullptr;
  std::unique_ptr<storage::StorageEngine> engine_;
  std::unique_ptr<core::UpdateStore> store_;
  std::vector<std::unique_ptr<core::TrustPolicy>> policies_;
  std::vector<std::unique_ptr<core::Participant>> participants_;
  std::unique_ptr<workload::SwissProtWorkload> workload_;
  CdssResult running_;
};

}  // namespace orchestra::sim

#endif  // ORCHESTRA_SIM_CDSS_H_
