#ifndef ORCHESTRA_CORE_ANALYSIS_H_
#define ORCHESTRA_CORE_ANALYSIS_H_

#include <vector>

#include "common/result.h"
#include "db/schema.h"
#include "core/conflict.h"
#include "core/reconciler.h"
#include "core/transaction.h"

namespace orchestra::core {

/// The data-dependent half of reconciliation — flattened update
/// extensions and the pairwise direct-conflict relation — separated from
/// the decision half (which depends on the reconciling participant's
/// private instance, delta, and soft state).
///
/// In client-centric reconciliation (§5.1) the client computes this; in
/// network-centric reconciliation (§5, Fig. 3) the update store computes
/// it across the network and ships the result, trading network traffic
/// for client work. Both paths call the same functions below, so the two
/// modes are decision-equivalent by construction.
struct ReconcileAnalysis {
  /// Flattened update extension per input transaction (parallel to the
  /// TrustedTxn list). Empty with flatten_ok[i] == false when the
  /// extension is internally inconsistent (the reconciler rejects it).
  std::vector<std::vector<Update>> up_ex;
  std::vector<uint8_t> flatten_ok;

  /// One entry per directly conflicting, non-subsumed pair (Definition 4
  /// with the Fig. 5 subsumption exemption), i < j indices into the
  /// TrustedTxn list.
  struct Pair {
    size_t i = 0;
    size_t j = 0;
    std::vector<ConflictPoint> points;
  };
  std::vector<Pair> conflicts;
};

/// Builds one conflicts entry.
ReconcileAnalysis::Pair MakeAnalysisPair(size_t i, size_t j,
                                         std::vector<ConflictPoint> points);

/// Flattens every transaction's update extension: computes up_ex /
/// flatten_ok for the transactions of `txns` not yet in `analysis`.
void FlattenExtensions(const db::Catalog& catalog,
                       const TransactionProvider& provider,
                       const std::vector<TrustedTxn>& txns,
                       ReconcileAnalysis* analysis);

/// Appends to analysis->conflicts every directly conflicting pair among
/// `txns` with indices in [first, txns.size()) × [0, txns.size()) —
/// passing first = 0 covers all pairs; a larger `first` restricts to
/// pairs involving at least one transaction from the tail, which lets a
/// caller extend an existing analysis with extra transactions (e.g. the
/// locally cached deferred backlog) without recomputing the head.
/// Pairs are appended in increasing (i, j) order.
void FindExtensionConflicts(const db::Catalog& catalog,
                            const TransactionProvider& provider,
                            const std::vector<TrustedTxn>& txns,
                            size_t first, ReconcileAnalysis* analysis);

/// Appends to `keys` the footprint of `updates`: every (relation, key)
/// they read or write, plus the foreign-key parent key of every child
/// tuple they write or remove (an inserted child needs its parent; a
/// vacated parent must leave no child behind). Two flattened update
/// sets with disjoint footprints neither conflict nor change each
/// other's applicability. Each key is appended as its RelKeyHash,
/// computed without building the key, and may repeat; a hash collision
/// can only make two footprints look like they meet.
void AppendFootprint(const db::Catalog& catalog,
                     const std::vector<Update>& updates,
                     std::vector<uint64_t>* keys);

/// Convenience: full analysis of `txns` (flatten + all-pairs conflicts).
ReconcileAnalysis AnalyzeExtensions(const db::Catalog& catalog,
                                    const TransactionProvider& provider,
                                    const std::vector<TrustedTxn>& txns);

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_ANALYSIS_H_
