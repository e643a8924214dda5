#ifndef ORCHESTRA_CORE_RECONCILER_H_
#define ORCHESTRA_CORE_RECONCILER_H_

#include <vector>

#include "common/result.h"
#include "common/trace.h"
#include "db/instance.h"
#include "core/decision.h"
#include "core/extension.h"
#include "core/provenance.h"
#include "core/transaction.h"

namespace orchestra::core {

struct ReconcileAnalysis;  // core/analysis.h

/// One fully trusted, undecided transaction as presented to the
/// reconciliation algorithm: its id, the priority pri_i assigned by the
/// reconciling participant's policy, and its transaction extension
/// te_i|e (sorted by publication order, ending with the root itself).
struct TrustedTxn {
  TransactionId id;
  int priority = 0;
  std::vector<TransactionId> extension;
  /// True when this transaction was deferred by an earlier reconciliation
  /// and is being reconsidered. Reconsidered transactions skip the
  /// dirty-value check (their own deferral marks must not re-defer them
  /// mechanically); fresh transactions touching a dirty value are
  /// deferred regardless of priority, so that a pending user resolution
  /// is never invalidated (§3.1, §5).
  bool previously_deferred = false;
};

/// Inputs to one invocation of ReconcileUpdates (Fig. 4).
struct ReconcileInput {
  /// The participant's reconciliation number for this run.
  int64_t recno = 0;
  /// Fully trusted undecided transactions: newly fetched from the update
  /// store plus any previously deferred ones being reconsidered.
  std::vector<TrustedTxn> txns;
  /// Resolves transaction ids (for footprints); must cover every id in
  /// every extension.
  const TransactionProvider* provider = nullptr;
  /// Flattened updates the participant itself made since its previous
  /// reconciliation — "the delta for recno" of CheckState line 7. A
  /// foreign transaction conflicting with the participant's own delta is
  /// rejected (the participant always picks its own version first).
  std::vector<Update> own_delta;
  /// Transactions already applied by this participant in earlier epochs
  /// (used to terminate antecedent chains and skip replay).
  const TxnIdSet* applied = nullptr;
  /// Transactions this participant has explicitly rejected.
  const TxnIdSet* rejected = nullptr;
  /// Dirty key values from the previous reconciliation's deferred set.
  const RelKeySet* dirty = nullptr;
  /// Optional precomputed flattening/conflict analysis over `txns` (see
  /// core/analysis.h). Participant always passes one: it flattens the
  /// fresh inputs before choosing which deferred ones to run, and in
  /// network-centric mode the store ships the fresh inputs' share. When
  /// null, the reconciler computes it locally.
  const ReconcileAnalysis* analysis = nullptr;
  /// Collect a ProvenanceRecord per input transaction into
  /// ReconcileOutcome::provenance. Decisions are identical either way;
  /// this only adds the explanation records.
  bool collect_provenance = false;
  /// Optional simulated-time trace context: when set, Run's per-phase
  /// spans (reconcile.phase.*) also land on the caller's track at the
  /// caller's simulated clock. Never feeds back into decisions.
  const TraceContext* trace = nullptr;
};

/// Outcome of one ReconcileUpdates run.
struct ReconcileOutcome {
  /// Decisions on the *input* transactions.
  std::vector<TransactionId> accepted_roots;
  std::vector<TransactionId> rejected_roots;
  std::vector<TransactionId> deferred_roots;
  /// Every transaction whose updates were applied to the instance — the
  /// accepted roots plus their transitively accepted antecedents. These
  /// must be recorded as applied in the update store.
  std::vector<TransactionId> applied_txns;
  /// Rebuilt soft state: dirty values and conflict groups derived from
  /// the transactions deferred as of this run (Fig. 5 UpdateSoftState).
  RelKeySet dirty_values;
  std::vector<ConflictGroup> conflict_groups;
  /// One record per input transaction (same order), populated only when
  /// ReconcileInput::collect_provenance is set. peer/epoch are stamped
  /// by the caller (the reconciler knows neither).
  std::vector<ProvenanceRecord> provenance;
};

/// Reconciliation knobs held by Participant, which turns them into
/// per-run ReconcileInput fields; the Reconciler itself stores none.
struct ReconcileOptions {
  /// Collect decision provenance on every run (see core/provenance.h).
  /// On by default: records are small, and Participant persists them
  /// alongside the decision log. Benchmarks may turn it off to measure
  /// the overhead.
  bool record_provenance = true;
};

/// The client-centric reconciliation algorithm of §5.1 (Figs. 4-5):
/// flatten update extensions, check state, find pairwise conflicts
/// (exempting subsumption), decide greedily by descending priority
/// (DoGroup), propagate decisions through dependencies, apply accepted
/// extensions in publication order, and rebuild deferral soft state.
///
/// The class is stateless across runs; all persistent and soft state is
/// owned by the caller (see Participant) and passed in explicitly.
class Reconciler {
 public:
  explicit Reconciler(const db::Catalog* catalog) : catalog_(catalog) {}

  /// Runs one reconciliation against `instance`, mutating it with the
  /// accepted updates. Fails only on internal errors (e.g. an extension
  /// id the provider cannot resolve); per-transaction problems become
  /// reject/defer decisions.
  Result<ReconcileOutcome> Run(const ReconcileInput& input,
                               db::Instance* instance) const;

 private:
  const db::Catalog* catalog_;
};

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_RECONCILER_H_
