#ifndef ORCHESTRA_CORE_UPDATE_STORE_H_
#define ORCHESTRA_CORE_UPDATE_STORE_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/analysis.h"
#include "core/ids.h"
#include "core/provenance.h"
#include "core/reconciler.h"
#include "core/transaction.h"
#include "core/trust.h"

namespace orchestra::core {

/// Cumulative cost counters for one participant's interactions with an
/// update store. `sim_network_micros` is deterministic simulated message
/// latency + transfer time; `store_cpu_micros` is measured wall time of
/// store-side computation. Together they make up the "Store Time" bars
/// of the paper's Figures 10 and 12.
struct StoreStats {
  /// Simulated time the peer waited on the store's network: overlapped
  /// sends cost their slowest lane (net::NetStats::micros).
  int64_t sim_network_micros = 0;
  /// The same messages charged stop-and-wait: the plain sum of their
  /// costs (net::NetStats::wire_micros).
  int64_t wire_micros = 0;
  int64_t store_cpu_micros = 0;
  int64_t messages = 0;
  int64_t bytes = 0;
  int64_t calls = 0;

  int64_t TotalStoreMicros() const {
    return sim_network_micros + store_cpu_micros;
  }

  friend StoreStats operator-(StoreStats a, const StoreStats& b) {
    a.sim_network_micros -= b.sim_network_micros;
    a.wire_micros -= b.wire_micros;
    a.store_cpu_micros -= b.store_cpu_micros;
    a.messages -= b.messages;
    a.bytes -= b.bytes;
    a.calls -= b.calls;
    return a;
  }
  friend StoreStats operator+(StoreStats a, const StoreStats& b) {
    a.sim_network_micros += b.sim_network_micros;
    a.wire_micros += b.wire_micros;
    a.store_cpu_micros += b.store_cpu_micros;
    a.messages += b.messages;
    a.bytes += b.bytes;
    a.calls += b.calls;
    return a;
  }
};

/// How a store assembles each reconciliation's fetch. Both modes run
/// the same pipeline (each store's window scan, then the shared closure
/// walk over its own lookups) and ship identical decisions; they differ
/// only in what they read.
enum class FetchMode {
  /// The reference: the scan window starts at epoch 0 (ignoring the
  /// peer's watermark), and every soft-state read is bypassed — the
  /// decoded-transaction arena, the per-peer decided overlay and the
  /// central stable floor — so each fetch is answered from the stores'
  /// durable state alone. Correct (the participant's catch-up machinery
  /// absorbs re-sent material) but its per-round cost grows with
  /// history. Tests diff the shipping mode against it, and it keeps the
  /// central store's stored-row checksum path hot.
  kFull,
  /// The shipping default: scan only epochs in (watermark, stable],
  /// serve decoded transactions from the shared arena (each committed
  /// transaction is decoded once across all peers and rounds), and
  /// suppress lookups whose answer the decided overlay already knows
  /// (see core::FetchCache).
  kDelta,
};

inline std::string_view FetchModeName(FetchMode mode) {
  switch (mode) {
    case FetchMode::kFull:
      return "full";
    case FetchMode::kDelta:
      return "delta";
  }
  return "unknown";
}

/// Per-fetch accounting. Under kFull the soft state is bypassed, so
/// `cache_hits` and `suppressed_lookups` stay zero and the central
/// store's `decoded` counts the window scan's decodes only.
struct FetchStats {
  int64_t decoded = 0;              // transactions decoded this fetch
  int64_t cache_hits = 0;           // decodes avoided via the arena
  int64_t suppressed_lookups = 0;   // per-key lookups skipped (overlay)
  int64_t batched_messages = 0;     // multi-get messages sent (DHT)
  int64_t corrupt_reads = 0;        // checksum-rejected replica/row reads
  int64_t read_repairs = 0;         // corrupt replicas healed from a good copy
  int64_t failover_probes = 0;      // extra replica probes after a bad read

  FetchStats& operator+=(const FetchStats& o) {
    decoded += o.decoded;
    cache_hits += o.cache_hits;
    suppressed_lookups += o.suppressed_lookups;
    batched_messages += o.batched_messages;
    corrupt_reads += o.corrupt_reads;
    read_repairs += o.read_repairs;
    failover_probes += o.failover_probes;
    return *this;
  }
};

/// Everything a participant needs from the store to run one
/// reconciliation: the allocated reconciliation number, the stable epoch
/// it covers, the fully trusted undecided transactions with their trust
/// priorities, and a bundle of transactions covering the trusted
/// transactions plus their antecedent closures (Fig. 7, ClosureLevel).
/// The bundle leaves out transactions the participant already applied,
/// and outside the kFull reference also those it rejected in its current
/// incarnation: it holds their bodies and computes extensions through
/// them from its cache.
struct ReconcileFetch {
  int64_t recno = 0;
  Epoch epoch = kNoEpoch;
  std::vector<std::pair<TransactionId, int>> trusted;
  std::vector<Transaction> transactions;
  /// How the store assembled this fetch (cache hits, suppressed
  /// lookups, batching); purely diagnostic.
  FetchStats stats;
};

/// Everything required to reconstruct a participant that lost its local
/// state (§5.2: the client holds only soft state — the store can rebuild
/// it up to the last reconciliation). `applied` is sorted by publication
/// order; `undecided` covers transactions the peer had fetched but
/// neither applied nor rejected (i.e. its deferred backlog), along with
/// their antecedent closures in `closure` (the fetch's closure walk over
/// every epoch up to the watermark).
struct RecoveryBundle {
  int64_t recno = 0;
  Epoch epoch = kNoEpoch;  // the peer's reconciliation watermark
  /// Last reconciliation whose decisions were recorded in full. The
  /// central store: the recno of its last decision-log row, with every
  /// id that recno's rows list checked against the decision rows. The
  /// DHT: the recno of the last completion witness, which travels beside
  /// the decision puts and counts them; when fewer decisions carry that
  /// recno than the witness counted, a put was lost and the witness's
  /// predecessor is reported. When this trails `recno`, the peer crashed
  /// between fetching reconciliation `recno` and recording its outcome;
  /// the store's decision log is complete only through
  /// `last_decided_recno`.
  int64_t last_decided_recno = 0;
  std::vector<Transaction> applied;
  std::vector<TransactionId> rejected;
  std::vector<std::pair<TransactionId, int>> undecided;
  std::vector<Transaction> closure;

  /// Puts `applied` in publication order: epoch, then id.
  void SortApplied() {
    std::sort(applied.begin(), applied.end(),
              [](const Transaction& a, const Transaction& b) {
                return a.epoch != b.epoch ? a.epoch < b.epoch : a.id < b.id;
              });
  }
};

/// What a network-centric reconciliation ships to the client: the usual
/// fetch, plus transaction extensions and the flattening/conflict
/// analysis, all computed inside the store ("across the network" for the
/// DHT, server-side for the central store). The client merges its
/// locally cached deferred backlog and runs only the decision phases.
struct NetworkCentricFetch {
  ReconcileFetch base;
  /// Parallel to base.trusted, with extensions computed store-side.
  std::vector<TrustedTxn> trusted_txns;
  /// Flattened extensions and direct conflicts over trusted_txns.
  ReconcileAnalysis analysis;

  /// The analysis as the reply to the peer carries it: the encoded
  /// flattened updates, plus one 48-byte record per conflicting pair.
  int64_t AnalysisBytes() const {
    auto bytes = static_cast<int64_t>(analysis.conflicts.size()) * 48;
    for (const auto& up_ex : analysis.up_ex) {
      for (const Update& u : up_ex) {
        bytes += static_cast<int64_t>(EncodedUpdateSize(u));
      }
    }
    return bytes;
  }
};

/// Optional capability interface: stores that can perform the
/// reconciliation analysis themselves (§5's network-centric mode,
/// proposed in the paper as future work and implemented here). Both
/// shipped stores support it; discover it with a dynamic_cast from
/// UpdateStore.
class NetworkCentricStore {
 public:
  virtual ~NetworkCentricStore() = default;

  /// Like UpdateStore::BeginReconciliation, but the store also computes
  /// the transaction extensions, flattened update extensions, and direct
  /// conflicts, charging that work to the store rather than the client.
  virtual Result<NetworkCentricFetch> BeginNetworkCentricReconciliation(
      ParticipantId peer) = 0;
};

/// The update store of §5.2: publishes and retrieves transactions,
/// associates each published transaction with a client reconciliation,
/// and durably records which transactions each peer accepted or
/// rejected. The two implementations — a centralized RDBMS-style store
/// (§5.2.1) and a distributed DHT-based store (§5.2.2) — live in
/// src/store.
class UpdateStore {
 public:
  virtual ~UpdateStore() = default;

  /// Registers a peer and its trust policy. The store applies trust
  /// predicates store-side so that only relevant transactions travel
  /// over the network (§5.2.1). The policy must outlive the store.
  virtual Status RegisterParticipant(ParticipantId peer,
                                     const TrustPolicy* policy) = 0;

  /// Publishes a batch of transactions from `peer` as one epoch and
  /// records them as already accepted by their publisher. Returns the
  /// allocated epoch.
  virtual Result<Epoch> Publish(ParticipantId peer,
                                std::vector<Transaction> txns) = 0;

  /// Starts a reconciliation for `peer`: allocates a reconciliation
  /// number, determines the latest stable epoch (§5.2.1), and returns
  /// the newly relevant transactions. Each published transaction is
  /// returned to a given peer at most once across reconciliations whose
  /// decisions were recorded. A store may return a window again until
  /// then (the DHT store advances the watermark only with the recorded
  /// decisions); the participant re-records what it already decided.
  virtual Result<ReconcileFetch> BeginReconciliation(ParticipantId peer) = 0;

  /// Durably records the outcome of reconciliation `recno`: the
  /// transactions applied (accepted roots plus transitively accepted
  /// antecedents) and those explicitly rejected.
  virtual Status RecordDecisions(
      ParticipantId peer, int64_t recno,
      const std::vector<TransactionId>& applied,
      const std::vector<TransactionId>& rejected) = 0;

  /// Persists the decision-provenance records of reconciliation `recno`
  /// alongside the decision log. Best-effort and advisory: provenance
  /// explains decisions but is never needed to make them, so stores may
  /// drop records under faults rather than fail the round — callers
  /// must not treat an error here as a failed reconciliation. The
  /// default keeps no provenance (stores opt in).
  virtual Status RecordProvenance(ParticipantId peer, int64_t recno,
                                  const std::vector<ProvenanceRecord>& records) {
    (void)peer;
    (void)recno;
    (void)records;
    return Status::OK();
  }

  /// Retrieves the full durable state of `peer` for crash recovery: its
  /// applied transactions (in publication order), rejected transaction
  /// ids, and the undecided (deferred) transactions within its
  /// reconciliation watermark. See RecoveryBundle.
  virtual Result<RecoveryBundle> FetchRecoveryState(
      ParticipantId peer) const = 0;

  /// Bootstraps `new_peer` from `source_peer`'s published state (§1:
  /// participants populate fresh local instances with downloaded data).
  /// Records, store-side, that `new_peer` has applied exactly what
  /// `source_peer` applied, moves its epoch watermark to the source's,
  /// and returns the applied transactions (in publication order) for
  /// local replay. The new peer's own trust policy governs everything
  /// *after* the bootstrap point; the source's rejections are
  /// deliberately not inherited (they reflect the source's policy, not
  /// the new peer's), and the bundle's `undecided` set — transactions in
  /// the adopted window that the source neither applied nor the new
  /// peer's policy distrusts — lets the new peer defer or decide them
  /// under its own rules.
  virtual Result<RecoveryBundle> Bootstrap(ParticipantId new_peer,
                                           ParticipantId source_peer) = 0;

  /// Cumulative interaction costs charged to `peer`.
  virtual StoreStats StatsFor(ParticipantId peer) const = 0;

  /// Human-readable implementation name ("central", "dht").
  virtual std::string_view name() const = 0;
};

/// The trust policy each peer registered with a store.
using PolicyMap = std::unordered_map<ParticipantId, const TrustPolicy*>;

/// `peer`'s registered policy, or NotFound.
inline Result<const TrustPolicy*> RegisteredPolicy(const PolicyMap& policies,
                                                   ParticipantId peer) {
  auto it = policies.find(peer);
  if (it != policies.end()) return it->second;
  return Status::NotFound("peer " + std::to_string(peer) +
                          " is not registered");
}

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_UPDATE_STORE_H_
