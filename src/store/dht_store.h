#ifndef ORCHESTRA_STORE_DHT_STORE_H_
#define ORCHESTRA_STORE_DHT_STORE_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "core/closure_walk.h"
#include "core/extension.h"
#include "core/fetch_cache.h"
#include "core/update_store.h"
#include "net/dht.h"
#include "net/sim_network.h"

namespace orchestra::store {

/// The distributed, DHT-based update store of §5.2.2, realized over the
/// Chord-style ring in src/net (standing in for FreePastry). State and
/// work are spread across the peers themselves:
///
///  - the *epoch allocator* (owner of a well-known key) hands out epoch
///    numbers (Fig. 6);
///  - an *epoch controller* (owner of hash("epoch:<e>")) records which
///    transactions were published in epoch e and whether the epoch is
///    complete;
///  - a *transaction controller* (owner of hash("txn:<id>")) stores one
///    transaction, evaluates the requesting peer's trust predicates, and
///    tracks that peer's accept/reject decisions (Fig. 7; the fetch,
///    recovery, bootstrap and network-centric walks all run
///    core::ClosureLevel::Walk's one rule over the controllers' answers);
///  - a *peer coordinator* (owner of hash("peer:<p>")) records peer p's
///    reconciliation numbers and epoch watermark.
///
/// Every key-addressed message is routed over the overlay and charged
/// per hop to the initiating peer; replies take one direct hop. The
/// client is scatter-gather (net::SimNetwork::Overlap): within a
/// protocol phase, every message that needs no other message's reply is
/// in flight at once, one lane per owner (or per transaction), and the
/// peer waits for the slowest lane. So a phase costs its longest chain,
/// not its message count. The phases follow each other: the fetch head,
/// whose allocator lane goes on into the epoch scan once the client
/// holds its watermark (see core::FetchCache), then each BFS level of
/// the antecedent closure (a level's ids come from the previous level's
/// replies; an owner streams its answers and payload back together);
/// then, once the peer has decided, one recording phase: the per-owner
/// decision puts and the completion witness, which also carries the
/// peer's new watermark, in flight together. Antecedent-chain round
/// trips therefore dominate reconciliation cost, as the paper reports.
/// A publish asks the allocator for an epoch (Fig. 6, step 1); then the
/// controller's begin-epoch exchange (2, 3) runs beside the allocator's
/// begin-publishing reply (4), which the epoch's id list (5) and every
/// transaction's store (6) follow in one phase, and the commit (7)
/// follows once all of them replied.
///
/// The store survives node churn: every controller's state is
/// replicated across the key's *replica group* — the key's first
/// `replication_factor` live successors on the ring. Writes fan out
/// from the primary to the whole group, reads try the primary and fail
/// over down the group, and membership changes (JoinNode / LeaveNode /
/// CrashNode) trigger key-range re-replication so that after each event
/// every key again has min(k, live nodes) replicas. With k=1
/// (replication off) a crash genuinely loses the crashed node's keys.
///
/// Messages on the publish/reconcile/record paths can be lost when a
/// fault injector is installed on the network. Publishing is
/// stage-then-commit: the epoch controller marks the epoch finished (the
/// commit point) only after every transaction controller has accepted
/// its transaction; any earlier loss aborts the epoch, and an epoch left
/// unfinished by a crashed publisher is reaped to "aborted" once enough
/// reconciliation scans have observed it stuck.
struct DhtStoreOptions {
  /// An epoch still unfinished after this many reconciliation scans have
  /// observed it is marked aborted at its controller so it stops
  /// blocking the stable watermark. Finished epochs are never touched;
  /// an aborted epoch can never finish.
  int stuck_epoch_reap_threshold = 3;
  /// Replicas per key (the key's replica group is its first
  /// `replication_factor` live successors). 1 disables replication: a
  /// node crash then loses every key the node owned.
  size_t replication_factor = 3;
  /// How reconciliation fetches are assembled. Both modes coalesce
  /// same-controller lookups into per-owner multi-get messages; kFull,
  /// the reference, scans from epoch 0 and never consults the decided
  /// overlay. Decisions are identical across modes (see core::FetchMode).
  core::FetchMode fetch_mode = core::FetchMode::kDelta;
  /// A node whose replica fails read verification this many times is
  /// quarantined: demoted to the back of every replica group's read
  /// preference until the process restarts. Demotion only reorders
  /// probes — post-verification data is identical — so decisions are
  /// unaffected.
  int64_t quarantine_threshold = 3;
};

class DhtStore : public core::UpdateStore,
                 public core::NetworkCentricStore {
 public:
  /// Creates a store whose ring has `nodes` DHT nodes. Peers must be
  /// registered before use; peer p runs on (the live successor of) node
  /// p % nodes.
  /// `catalog` enables network-centric reconciliation (controllers must
  /// know the shared schema Σ to flatten and compare updates); pass
  /// nullptr to run client-centric only.
  DhtStore(size_t nodes, net::SimNetwork* network,
           const db::Catalog* catalog = nullptr, DhtStoreOptions options = {});

  Status RegisterParticipant(core::ParticipantId peer,
                             const core::TrustPolicy* policy) override;
  Result<core::Epoch> Publish(core::ParticipantId peer,
                              std::vector<core::Transaction> txns) override;
  Result<core::ReconcileFetch> BeginReconciliation(
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
  Result<core::NetworkCentricFetch> BeginNetworkCentricReconciliation(
      core::ParticipantId peer) override;
  Result<core::RecoveryBundle> Bootstrap(
      core::ParticipantId new_peer, core::ParticipantId source_peer) override;
  core::StoreStats StatsFor(core::ParticipantId peer) const override;
  std::string_view name() const override { return "dht"; }

  const net::DhtRing& ring() const { return ring_; }

  /// Provenance records retained for `peer`, in record order. The DHT
  /// keeps provenance at the peer's coordinator as a node-local
  /// diagnostic log piggybacking on the RecordDecisions batch (no extra
  /// messages); it is not replicated and does not survive coordinator
  /// churn — the advisory contract of RecordProvenance allows both.
  const std::vector<core::ProvenanceRecord>& provenance_log(
      core::ParticipantId peer) const;

  /// --- Membership (churn) ------------------------------------------
  ///
  /// Each event updates the overlay and then re-replicates so the
  /// replica invariant holds again. Re-replication traffic is charged
  /// to the synthetic kRepairEndpoint, not to any peer.

  /// Adds a fresh (empty) node to the ring and migrates onto it the key
  /// ranges it now participates in. Returns the node's index.
  Result<size_t> JoinNode();
  /// Graceful departure: the node hands its key ranges to the new
  /// owners before going away; no data is lost even with k=1.
  Status LeaveNode(size_t node);
  /// Abrupt failure: the node's state dies with it. `repair` re-creates
  /// the missing replicas from the survivors immediately (the default);
  /// tests pass false to observe the degraded window where reads must
  /// fail over down the replica group.
  Status CrashNode(size_t node, bool repair = true);
  /// Re-replication pass: for every item held by any node, copies it to
  /// replica-group members that lack it and drops it from nodes no
  /// longer in the group. Idempotent.
  void RepairReplication();
  /// True when every item held anywhere is held by exactly its replica
  /// group (min(k, live) live successors of its key) — the invariant
  /// membership events must restore. Exposed for tests.
  bool CheckReplicationInvariant() const;

  /// --- Integrity (at-rest corruption) ------------------------------

  /// Outcome of one background scrub pass.
  struct ScrubReport {
    int64_t replicas_checked = 0;
    int64_t corrupt_found = 0;
    int64_t healed = 0;
    /// Ids for which no replica verifies: the data is rotten everywhere
    /// and the next read returns kDataLoss.
    int64_t unrecoverable = 0;
  };
  /// Background scrub: verifies every stored transaction replica
  /// against its envelope checksum and heals corrupt copies from a
  /// verified one (replica-to-replica transfers charged to
  /// kRepairEndpoint). Deterministic walk order; idempotent.
  ScrubReport ScrubReplicas();

  /// True when `node` has been demoted from read preference after
  /// serving `quarantine_threshold` corrupt replicas. Exposed for tests.
  bool Quarantined(size_t node) const {
    auto it = corrupt_serves_.find(node);
    return it != corrupt_serves_.end() &&
           it->second >= options_.quarantine_threshold;
  }

  size_t live_node_count() const { return ring_.live_count(); }

  /// Endpoint re-replication traffic is charged to (membership repair
  /// has no initiating peer).
  static constexpr uint32_t kRepairEndpoint = 0xFFFFFFFFu;

 private:
  /// One recorded accept/reject, tagged with the reconciliation that
  /// produced it (0 for the publisher's implicit self-acceptance).
  struct Decision {
    char verdict = 0;  // 'A' or 'R'
    int64_t recno = 0;
  };

  /// Peer coordinator entry, written by the completion witness each
  /// RecordDecisions sends alongside its decision puts. `decided_recno`
  /// is the last reconciliation whose witness landed, `decided_count`
  /// the number of decisions its recordings listed (summed over
  /// recordings sharing that recno), and `prev_decided_recno` the
  /// witnessed recno before it. The witness does not wait for the puts,
  /// so it alone does not prove them landed: recovery counts the
  /// decisions tagged `decided_recno` and, when they fall short of
  /// `decided_count`, reports `prev_decided_recno` instead, showing the
  /// reconciliation as interrupted. `epoch`, the watermark, moves in the
  /// same write: a fetch's window is consumed once its decisions are
  /// recorded.
  struct CoordEntry {
    int64_t recno = 0;
    core::Epoch epoch = 0;
    int64_t decided_recno = 0;
    int64_t decided_count = 0;
    int64_t prev_decided_recno = 0;
  };

  /// One transaction replica as a node stores it (see NodeState::txns).
  struct StoredTxn {
    core::Epoch epoch = 0;
    std::string wire;
  };

  /// Per-DHT-node state; the role a node plays for a given key follows
  /// from ring ownership. Under replication every member of a key's
  /// replica group holds the same entries for that key.
  struct NodeState {
    /// Epoch allocator state (meaningful only on the allocator group).
    int64_t epoch_counter = 0;
    /// Epoch controller state: epoch -> published transaction ids,
    /// whether the epoch finished (committed), and whether it aborted.
    /// All controller state is kept in *ordered* containers (lint rule
    /// D3): recovery, adoption, and replication repair walk these maps
    /// whole, and their walk order must not depend on a hash function.
    /// Point lookups dominate and stay O(log n) over small per-node maps.
    std::map<core::Epoch, std::vector<core::TransactionId>> epoch_contents;
    std::set<core::Epoch> epoch_done;
    std::set<core::Epoch> epoch_aborted;
    /// Transaction controller state: one copy of each replica, stored
    /// as the envelope-framed encoding installed at publish time. That
    /// is what at-rest corruption rots and what every read verifies
    /// and decodes. The epoch rides alongside so the committed-epoch
    /// check needs no decode; it is fixed at publish and never rots.
    std::map<core::TransactionId, StoredTxn> txns;
    /// Decisions recorded per transaction, per peer.
    std::map<core::TransactionId, std::map<core::ParticipantId, Decision>>
        decisions;
    /// Peer coordinator state.
    std::map<core::ParticipantId, CoordEntry> coordinated;

    /// True when this node has any record of epoch `e`.
    bool KnowsEpoch(core::Epoch e) const {
      return epoch_contents.count(e) != 0 || epoch_done.count(e) != 0 ||
             epoch_aborted.count(e) != 0;
    }
  };

  /// The live node peer p's client runs on: slot p % size, failing over
  /// to that slot's live successor when the slot crashed or left.
  size_t NodeOfPeer(core::ParticipantId peer) const;
  /// Primaries (first live successor) for each controller key; reads
  /// must still fail over down the group via FirstHolder.
  size_t AllocatorNode() const {
    return ring_.OwnerOf(net::KeyHash("epoch-allocator"));
  }
  size_t EpochControllerNode(core::Epoch epoch) const {
    return ring_.OwnerOf(net::KeyHash("epoch:" + std::to_string(epoch)));
  }
  size_t TxnControllerNode(const core::TransactionId& id) const {
    return ring_.OwnerOf(net::KeyHash("txn:" + id.ToString()));
  }
  size_t CoordinatorNode(core::ParticipantId peer) const {
    return ring_.OwnerOf(net::KeyHash("peer:" + std::to_string(peer)));
  }

  /// The key's replica group (primary first).
  std::vector<size_t> GroupFor(const std::string& key) const {
    return ring_.ReplicaGroup(net::KeyHash(key), options_.replication_factor);
  }
  /// Applies `fn` to every replica of `key`; group writes are atomic in
  /// the simulation (message loss aborts the *protocol*, via the staged
  /// publish / reaping machinery, never half a group write).
  template <typename Fn>
  void MutateGroup(const std::string& key, Fn fn) {
    for (size_t node : GroupFor(key)) fn(nodes_[node]);
  }
  /// Failover read: the first replica of `key` satisfying `has`,
  /// primary first. Every miss past a replica is a failed probe charged
  /// to `peer` as one direct message. Empty when no replica holds the
  /// item — the data is lost (k was too small for the churn).
  template <typename Pred>
  std::optional<size_t> FirstHolder(core::ParticipantId peer,
                                    const std::string& key, Pred has) const {
    static Counter& failover_probes =
        MetricsRegistry::Global().GetCounter("store.dht.failover_probes");
    // Sequential: each probe waits for the previous replica's miss.
    for (size_t node : GroupFor(key)) {
      if (has(nodes_[node])) return node;
      failover_probes.Increment();
      network_->Charge(peer, 1, 16);  // probe + miss reply
    }
    return std::nullopt;
  }

  /// One direct (already-located) message that no fault can lose.
  void DirectSend(core::ParticipantId peer, int64_t bytes);
  /// Routes one key-addressed message from `from_node` to the owner of
  /// `key`, charging `bytes` per hop (and any dead-finger probe) to
  /// `peer`; returns the owner. Each message is charged either way, but
  /// an installed fault injector may declare it lost (Unavailable).
  Result<size_t> TryRoutedSend(core::ParticipantId peer, size_t from_node,
                               net::NodeId key, int64_t bytes);
  Status TryDirectSend(core::ParticipantId peer, int64_t bytes);
  /// Routes to `key`'s primary and fans the message out to the rest of
  /// the replica group: k-1 direct messages sent at once, one hop.
  Status TryReplicatedSend(core::ParticipantId peer, size_t from_node,
                           const std::string& key, int64_t bytes);

  /// One verified group read of a transaction: the decoded value with
  /// its encoded length (the envelope's payload length), the node whose
  /// copy checked out (its decision log is read alongside), and the
  /// verified wire blob for shipping onward.
  struct TxnRead {
    core::SizedTxn sized;
    size_t holder = 0;
    std::string wire;
  };
  /// Group read of transaction `id` with end-to-end verification: walks
  /// the replica group in read-preference order (quarantined nodes
  /// last), verifies each holder's at-rest blob against its envelope
  /// checksum, and decodes the first copy that checks out. A corrupt
  /// replica costs `peer` its wasted reply, scores its node toward
  /// quarantine, and is read-repaired in place from the verified copy
  /// (the repair transfer goes to kRepairEndpoint). kDataLoss when no
  /// replica holds the id, or copies exist but none verifies — at-rest
  /// rot is persistent, so no retry can save it.
  Result<TxnRead> ReadTxnVerified(core::ParticipantId peer,
                                  const core::TransactionId& id) const;
  /// Bulk-sweep variant: reads `node`'s own copy of `id` (recovery and
  /// bootstrap walk every node), escalating to a verified group read
  /// when the local copy fails its checksum.
  Result<core::SizedTxn> ReadLocalOrRepair(
      core::ParticipantId peer, size_t node,
      const core::TransactionId& id) const;
  /// Installs a transaction's wire blob on one replica,
  /// applying at-rest corruption (storage.bit_flip) independently per
  /// copy when an injector is armed — rot on one replica never implies
  /// rot on another.
  void InstallTxnReplica(NodeState& node, const core::Transaction& txn,
                         const std::string& wire) const;
  /// Replica group of `key` reordered for reads: quarantined nodes go
  /// last (stable within each class).
  std::vector<size_t> ReadOrderFor(const std::string& key) const;
  /// Bumps `node`'s corrupt-serve score; crossing the quarantine
  /// threshold counts integrity.quarantined_nodes once.
  void ScoreCorruptServe(size_t node) const;

  /// Encoded length of each shipped body, by id.
  using ShippedBytes =
      std::unordered_map<core::TransactionId, int64_t,
                         core::TransactionIdHash>;
  /// BeginReconciliation, also reporting in `held` (when non-null) each
  /// antecedent the closure walk skipped through the decided overlay,
  /// and in `shipped_bytes` (when non-null) each shipped body's length.
  Result<core::ReconcileFetch> Fetch(core::ParticipantId peer,
                                     std::vector<core::TransactionId>* held,
                                     ShippedBytes* shipped_bytes);
  /// `peer`'s recorded verdict on `id` in `node`'s decision log.
  static core::RecordedVerdict VerdictAt(const NodeState& node,
                                         const core::TransactionId& id,
                                         core::ParticipantId peer);

  /// Ships `wire` to `peer` as an actual payload (retransmitting loss
  /// like TryDirectSend); in-flight corruption is silent and comes back
  /// in the delivered bytes.
  Result<std::string> ShipPayload(core::ParticipantId peer,
                                  std::string_view wire) const;
  /// Recovery and bootstrap tail: the closure walk from every id of a
  /// committed epoch up to `bundle->epoch` that is not in `decided`,
  /// stopping at `applied` (both from the node sweep), with one read per
  /// transaction. Fills `bundle`'s undecided and closure lists.
  Status ReadUndecided(core::ParticipantId peer,
                       const core::TrustPolicy& policy,
                       const core::TxnIdSet& decided,
                       const core::TxnIdSet& applied,
                       core::RecoveryBundle* bundle) const;
  /// True when epoch `e` committed (finished and not aborted) on any
  /// replica still holding it.
  bool EpochCommitted(core::Epoch e) const;
  /// True when the transaction is stored under a committed epoch.
  /// Residue of an aborted publish does not count: it is overwritten on
  /// republish.
  bool IsCommittedTxn(const core::TransactionId& id) const;
  /// Best-effort rollback of a failed publish: removes the staged
  /// transactions, erases the epoch's contents, and marks the epoch
  /// aborted at its controller group. Skipped entirely when the fault
  /// injector reports a sticky (crash) fault — a dead publisher cannot
  /// clean up, and the stuck-epoch reaper takes over.
  void AbortEpoch(core::ParticipantId peer, core::Epoch epoch,
                  const std::vector<core::TransactionId>& staged);

  net::DhtRing ring_;
  net::SimNetwork* network_;
  const db::Catalog* catalog_ = nullptr;
  DhtStoreOptions options_;
  /// Mutable: verified reads are logically read-only at the protocol
  /// level but heal corrupt replicas in place (read-repair), including
  /// from the const recovery path.
  mutable std::vector<NodeState> nodes_;
  /// Corrupt-serve scores driving quarantine; mutable for the same
  /// reason. Ordered (lint rule D3).
  mutable std::map<size_t, int64_t> corrupt_serves_;
  core::PolicyMap policies_;
  /// Soft state: unfinished-epoch observation counts driving the reaper.
  std::unordered_map<core::Epoch, int> epoch_strikes_;
  /// Soft state: per-peer decided overlays behind lookup suppression
  /// (always written, read only outside the reference). DHT nodes
  /// already hold decoded transactions, so the arena half of the cache
  /// is unused here. Mutable because recovery reads (FetchRecoveryState)
  /// refresh it.
  mutable core::FetchCache cache_;
  mutable std::unordered_map<core::ParticipantId, int64_t> cpu_micros_;
  mutable std::unordered_map<core::ParticipantId, int64_t> calls_;
  /// Per-peer provenance logs (see provenance_log). Ordered (lint rule
  /// D3): provenance_dump walks this map whole.
  std::map<core::ParticipantId, std::vector<core::ProvenanceRecord>>
      provenance_log_;
};

}  // namespace orchestra::store

#endif  // ORCHESTRA_STORE_DHT_STORE_H_
