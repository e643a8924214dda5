#ifndef ORCHESTRA_CORE_PARTICIPANT_H_
#define ORCHESTRA_CORE_PARTICIPANT_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/random.h"
#include "common/result.h"
#include "common/trace.h"
#include "db/instance.h"
#include "core/decision.h"
#include "core/reconciler.h"
#include "core/transaction.h"
#include "core/trust.h"
#include "core/update_store.h"

namespace orchestra::core {

/// Summary of one reconciliation, including the timing split reported in
/// the paper's evaluation (store time vs. local time).
struct ReconcileReport {
  int64_t recno = 0;
  Epoch epoch = kNoEpoch;
  size_t fetched = 0;       // newly relevant trusted transactions
  size_t reconsidered = 0;  // previously deferred transactions re-examined
  /// Of `reconsidered`, the verdicts carried forward from the run that
  /// last analysed them, because nothing they depend on changed.
  size_t carried = 0;
  std::vector<TransactionId> accepted;
  std::vector<TransactionId> rejected;
  std::vector<TransactionId> deferred;
  size_t open_conflict_groups = 0;
  /// Store-side cost of this reconciliation (network + store CPU).
  StoreStats store;
  /// How the store assembled the fetch (decodes, cache hits, suppressed
  /// lookups, batched messages); see core::FetchStats.
  FetchStats fetch_stats;
  /// Local (client-side) reconciliation algorithm time, measured.
  int64_t local_micros = 0;
  /// Why each input transaction was accepted/rejected/deferred this
  /// run, fully stamped (peer/recno/epoch). Empty when the engine runs
  /// with record_provenance off. See core/provenance.h.
  std::vector<ProvenanceRecord> provenance;
};

/// Retry policy for store operations that fail with a *transient* error
/// (Unavailable — a lost message or injected fault). Other codes are
/// never retried: they are answers, not outages. Backoff grows
/// exponentially and is accounted as simulated time, not slept, so
/// faulted simulations stay fast and deterministic.
struct ReconcileRetryOptions {
  /// Total attempts including the first; 1 disables retrying.
  int max_attempts = 8;
  int64_t initial_backoff_micros = 1000;
  double backoff_multiplier = 2.0;
  /// Ceiling on a single backoff step, applied before jitter. Keeps
  /// large max_attempts configurations (outage-wait loops) from growing
  /// the step past int64 range — unbounded exponential growth used to
  /// overflow and corrupt the accumulated backoff. Values < 1 are
  /// treated as 1.
  int64_t max_backoff_micros = 60'000'000;  // 60 simulated seconds
  /// Each backoff step is scaled by a uniform factor in
  /// [1 - backoff_jitter, 1 + backoff_jitter], drawn from the
  /// participant's own seeded stream. After a shared outage every peer
  /// observes the same Unavailable at the same simulated moment; without
  /// jitter they would all retry in lockstep and re-collide. 0 disables.
  double backoff_jitter = 0.25;
};

/// What retried operations actually did. Both fields *accumulate*, so
/// one struct can be threaded through several *WithRetry calls to total
/// a whole round's retry work: `attempts` adds every attempt made
/// (including each operation's first) and `backoff_micros` adds the
/// simulated backoff charged, saturating at INT64_MAX instead of
/// wrapping. Zero the struct (or use a fresh one) for per-op readings;
/// a single successful operation reads as `attempts == 1`.
struct RetryStats {
  int attempts = 0;              // attempts made, accumulated across ops
  int64_t backoff_micros = 0;    // simulated backoff accumulated
};

/// One CDSS participant p_i: a local database instance, a trust policy,
/// a publish queue, and the soft state required by the client-centric
/// reconciliation algorithm (transaction cache, deferred set, dirty
/// values, conflict groups). Everything except the instance and the
/// durable applied/rejected decisions (which the store also records) is
/// reconstructible soft state (§5.2).
class Participant {
 public:
  /// The catalog must outlive the participant. The trust policy's self
  /// id must equal `id`. `options` configures every reconciliation run
  /// (provenance collection; see ReconcileOptions).
  Participant(ParticipantId id, const db::Catalog* catalog,
              TrustPolicy policy, ReconcileOptions options = {});

  /// Reconstructs a participant that lost all of its local state from
  /// the update store (§5.2: the client holds only soft state). The
  /// instance, version map and applied/rejected sets are rebuilt by
  /// replaying the store's decision log in publication order; the
  /// undecided (previously deferred) backlog is re-reconciled, restoring
  /// dirty values and conflict groups. Local transactions that were
  /// executed but never published are genuinely lost.
  static Result<std::unique_ptr<Participant>> RecoverFromStore(
      ParticipantId id, const db::Catalog* catalog, TrustPolicy policy,
      UpdateStore* store, ReconcileOptions options = {});

  /// Bootstraps a brand-new participant from `source_peer`'s published
  /// state (§1: a fresh local instance populated with downloaded data).
  /// The new participant adopts the source's applied transactions as its
  /// own accepted history; transactions in the adopted window that the
  /// source left undecided are re-reconciled under the new participant's
  /// *own* trust policy. After bootstrap the participant reconciles
  /// forward normally.
  static Result<std::unique_ptr<Participant>> BootstrapFrom(
      ParticipantId id, const db::Catalog* catalog, TrustPolicy policy,
      UpdateStore* store, ParticipantId source_peer,
      ReconcileOptions options = {});

  ParticipantId id() const { return id_; }
  const db::Instance& instance() const { return instance_; }
  const TrustPolicy& policy() const { return policy_; }

  /// Executes a local transaction: validates it against the local
  /// instance, applies it, computes its antecedents from the version
  /// map, and queues it for the next Publish. Returns the assigned id.
  Result<TransactionId> ExecuteTransaction(std::vector<Update> updates);

  /// Publishes all queued transactions to the store as one epoch.
  /// A no-op returning kNoEpoch when the queue is empty.
  Result<Epoch> Publish(UpdateStore* store);

  /// Reconciles against the store: fetches newly relevant transactions,
  /// reconsiders previously deferred ones, runs the reconciliation
  /// algorithm, applies accepted updates, and records decisions.
  Result<ReconcileReport> Reconcile(UpdateStore* store);

  /// Publish followed by Reconcile (the common combined step, §3).
  Result<ReconcileReport> PublishAndReconcile(UpdateStore* store);

  /// Retry wrappers: run the underlying operation, retrying only
  /// Unavailable failures with exponential backoff (see
  /// ReconcileRetryOptions). Safe because every store operation is
  /// either staged (a failed attempt leaves no visible state) or
  /// idempotent (re-recording a decision overwrites it with itself);
  /// catch-up re-recording in Reconcile covers the one gap — a crash
  /// after applying but before recording, which makes the store resend
  /// already-decided transactions. `stats`, when non-null, reports the
  /// attempts made and the simulated backoff accumulated.
  [[nodiscard]] Result<Epoch> PublishWithRetry(
      UpdateStore* store, const ReconcileRetryOptions& retry,
      RetryStats* stats = nullptr);
  [[nodiscard]] Result<ReconcileReport> ReconcileWithRetry(
      UpdateStore* store, const ReconcileRetryOptions& retry,
      RetryStats* stats = nullptr);
  [[nodiscard]] Result<ReconcileReport> ReconcileNetworkCentricWithRetry(
      UpdateStore* store, const ReconcileRetryOptions& retry,
      RetryStats* stats = nullptr);

  /// Network-centric reconciliation (§5, Fig. 3): the store computes the
  /// transaction extensions, flattening, and conflict detection; the
  /// client merges its deferred backlog and runs only the decision
  /// phases. The store must implement NetworkCentricStore (both shipped
  /// stores do, when constructed with the catalog); otherwise this
  /// returns NotSupported. Decisions are identical to client-centric
  /// reconciliation by construction — only the cost split differs.
  Result<ReconcileReport> ReconcileNetworkCentric(UpdateStore* store);

  /// Conflict groups currently awaiting user resolution.
  const std::vector<ConflictGroup>& pending_conflicts() const {
    return conflict_groups_;
  }

  /// Resolves one pending conflict group: the transactions of the chosen
  /// option (by index into the group's options) survive and are
  /// re-reconciled; all other options' transactions are rejected.
  /// Passing nullopt rejects every option. Other deferred transactions
  /// are re-examined in the same pass, per §4.
  Result<ReconcileReport> ResolveConflict(UpdateStore* store,
                                          size_t group_index,
                                          std::optional<size_t> chosen_option);

  /// Binds this participant to a simulated-time trace track: spans for
  /// publish / fetch / reconcile phases / decision recording are
  /// emitted at `now()`'s reading (the peer's simulated clock) onto
  /// track `tid`. Null tracer unbinds. Never affects decisions.
  void BindSimTrace(Tracer* tracer, uint32_t tid,
                    std::function<int64_t()> now) {
    sim_trace_ = nullptr;
    if (tracer != nullptr) {
      sim_trace_ = std::make_unique<TraceContext>(tracer, tid, std::move(now));
    }
  }

  /// Every provenance record this participant has produced, in decision
  /// order (soft state; rebuilt only for rounds run after recovery).
  /// Source for the CLI's `explain` verb.
  const std::vector<ProvenanceRecord>& provenance_log() const {
    return provenance_log_;
  }

  /// Number of transactions this participant has applied (own plus
  /// imported, including transitively accepted antecedents).
  size_t applied_count() const { return applied_.size(); }
  size_t rejected_count() const { return rejected_.size(); }
  size_t deferred_count() const { return deferred_.size(); }

  const TxnIdSet& applied() const { return applied_; }
  const TxnIdSet& rejected() const { return rejected_; }

 private:
  friend class ParticipantTestPeer;  // reaches ForgetCarriedVerdicts

  /// What the run that last analysed a deferred transaction concluded
  /// about it. Later rounds carry the verdict forward unanalysed while
  /// nothing it depends on changes (see docs/ARCHITECTURE.md, "Soft
  /// state").
  struct DeferredVerdict {
    /// Its extension, the footprint of its flattened extension
    /// (AppendFootprint) and its dirty values (touched keys), as of
    /// that run.
    std::vector<TransactionId> extension;
    std::vector<uint64_t> footprint;
    std::vector<RelKey> dirty;
    /// It was a fresh input of that run. Its cause (and any decisive
    /// comparison) can change once it is reconsidered, so it runs again.
    bool fresh = false;
    /// That run's provenance record (unset when provenance is off).
    ProvenanceRecord record;
  };
  struct DeferredInfo {
    int priority = 0;
    /// Unset until a run analyses the transaction (recovery, bootstrap
    /// and ForgetCarriedVerdicts leave it unset): it must run.
    std::optional<DeferredVerdict> verdict;
  };

  /// Drops every carried verdict, so that the next run analyses the
  /// whole deferred backlog. Recovery, bootstrap and ResolveConflict
  /// start from here.
  void ForgetCarriedVerdicts();

  /// The carry rule: marks, in deferred_ order, each deferred
  /// transaction that must be analysed again this round. `fresh` are
  /// this round's fresh inputs and `fresh_footprints` their
  /// footprints; `own_footprint` is the own delta's.
  std::vector<bool> SelectRerun(
      const std::vector<TrustedTxn>& fresh,
      const std::vector<std::vector<uint64_t>>& fresh_footprints,
      const std::vector<uint64_t>& own_footprint) const;

  /// Shared tail of RecoverFromStore / BootstrapFrom: replays the
  /// bundle's applied history and re-reconciles its undecided backlog.
  static Result<std::unique_ptr<Participant>> FromBundle(
      ParticipantId id, const db::Catalog* catalog, TrustPolicy policy,
      UpdateStore* store, RecoveryBundle bundle, ReconcileOptions options);

  /// Runs the reconciler over the `fresh` transactions plus the deferred
  /// ones the carry rule selects, merges the carried verdicts back in,
  /// folds the outcome into the participant state and records decisions
  /// with the store. `shipped`, when set, is the store's analysis of
  /// `fresh` (network-centric mode). The catch-up lists are decisions
  /// the participant already made but the store evidently lost (it
  /// resent the transactions as undecided); they ride along in the same
  /// RecordDecisions call.
  Result<ReconcileReport> RunAndCommit(
      UpdateStore* store, int64_t recno, Epoch epoch,
      std::vector<TrustedTxn> fresh, Stopwatch* local,
      std::optional<ReconcileAnalysis> shipped = std::nullopt,
      const std::vector<TransactionId>& catch_up_applied = {},
      const std::vector<TransactionId>& catch_up_rejected = {});

  /// Folds newly applied transactions into the state: advances the
  /// version map over them in publication order, so future antecedent
  /// computation is correct, marks them applied and drops their bodies
  /// from the transaction cache.
  void CommitApplied(const std::vector<TransactionId>& applied_txns);
  /// Caches a body the store shipped, unless it is already applied here
  /// (a catch-up resend): no extension reaches an applied transaction.
  void CacheBody(Transaction txn);
  /// Advances the version and tombstone maps over `updates`, written by
  /// `txn_id`: a read key loses its version (a delete leaves a
  /// tombstone), a write key takes `txn_id` as its version and clears
  /// its tombstone.
  void AdvanceVersions(const std::vector<Update>& updates,
                       const TransactionId& txn_id);

  /// Bumps the process-wide metrics registry with one round's count and
  /// its fetched and reconsidered transaction totals.
  static void RecordFetchMetrics(size_t fetched, size_t reconsidered);

  ParticipantId id_;
  const db::Catalog* catalog_;
  TrustPolicy policy_;
  db::Instance instance_;
  ReconcileOptions options_;
  Reconciler reconciler_;

  uint64_t next_seq_ = 0;
  /// Per-participant stream behind retry-backoff jitter; seeded from the
  /// participant id so runs stay deterministic yet peers decorrelate.
  Rng retry_rng_;
  std::vector<Transaction> publish_queue_;
  /// Updates executed locally since the previous reconciliation — the
  /// "delta for recno" used by CheckState.
  std::vector<Update> own_delta_;

  /// Soft state (reconstructible from the store).
  /// Bodies of undecided and rejected transactions only. Definition 3
  /// stops every extension at an applied transaction, so an applied
  /// body is never read again: CommitApplied drops it, CacheBody never
  /// admits it, and own transactions (applied when executed) live only
  /// in publish_queue_. A rejected body stays, since a later
  /// extension can contain it.
  TransactionMap txn_cache_;
  TxnIdSet applied_;
  TxnIdSet rejected_;
  std::map<TransactionId, DeferredInfo> deferred_;
  RelKeySet dirty_;
  std::vector<ConflictGroup> conflict_groups_;
  /// Keys whose state changed after the previous run analysed its
  /// inputs: what its phase 5 applied, and the footprints of the inputs
  /// it decided (they leave the next run's comparisons). Carry rule 1.
  std::vector<uint64_t> changed_keys_;
  int64_t last_recno_ = 0;
  /// In-memory decision-provenance log (append-only soft state) and the
  /// simulated-time trace context (null unless BindSimTrace was called).
  std::vector<ProvenanceRecord> provenance_log_;
  std::unique_ptr<TraceContext> sim_trace_;
  /// Decisions already folded into local state whose store recording
  /// failed transiently. They ride along with the next RecordDecisions
  /// call — recording is idempotent and keyed by transaction, so the
  /// participant never has to unwind local state over a lost ack.
  std::vector<TransactionId> unrecorded_applied_;
  std::vector<TransactionId> unrecorded_rejected_;

  /// (relation, key) -> last published transaction that wrote the tuple;
  /// drives antecedent computation for deletes and modifies.
  std::unordered_map<RelKey, TransactionId, RelKeyHash> version_map_;
  /// (relation, key) -> transaction that last *deleted* the tuple. An
  /// insert re-creating a deleted key takes the deleting transaction as
  /// its antecedent, so that sequential remove-then-replace forms one
  /// dependency chain (and flattens to a replacement) instead of being
  /// mistaken for the §4 delete-vs-insert conflict between independent
  /// writers.
  std::unordered_map<RelKey, TransactionId, RelKeyHash> tombstone_map_;
};

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_PARTICIPANT_H_
