#include "core/analysis.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "common/string_util.h"
#include "core/extension.h"
#include "core/flatten.h"

namespace orchestra::core {

namespace {

/// The direct-conflict test for one candidate pair (i, j): the cheap
/// full-extension conflict test, the Fig. 5 subsumption exemption, and
/// the Definition 4 shared-antecedent refinement. Returns the conflict
/// points (empty == no direct conflict).
std::vector<ConflictPoint> TestCandidatePair(
    const db::Catalog& catalog, const TransactionProvider& provider,
    const TrustedTxn& txn_i, const TrustedTxn& txn_j,
    const std::vector<Update>& up_ex_i, const std::vector<Update>& up_ex_j) {
  std::vector<ConflictPoint> points = SetsConflict(catalog, up_ex_i, up_ex_j);
  if (points.empty()) return points;
  // Fig. 5 FindConflicts line 4: a subsumed transaction never counts as
  // conflicting with its subsumer.
  if (Subsumes(txn_i.extension, txn_j.extension) ||
      Subsumes(txn_j.extension, txn_i.extension)) {
    return {};
  }
  // Definition 4 (direct conflict): interactions through *shared*
  // antecedents do not count — compare the extensions with the shared
  // transactions S removed. Only needed when the cheap full-extension
  // test fired and the extensions overlap.
  TxnIdSet shared;
  {
    TxnIdSet ext_i(txn_i.extension.begin(), txn_i.extension.end());
    for (const TransactionId& id : txn_j.extension) {
      if (ext_i.count(id) != 0) shared.insert(id);
    }
  }
  if (!shared.empty()) {
    auto flat_i =
        Flatten(catalog, UpdateFootprint(provider, txn_i.extension, shared));
    auto flat_j =
        Flatten(catalog, UpdateFootprint(provider, txn_j.extension, shared));
    if (flat_i.ok() && flat_j.ok()) {
      points = SetsConflict(catalog, *flat_i, *flat_j);
    }
  }
  return points;
}

}  // namespace

ReconcileAnalysis::Pair MakeAnalysisPair(size_t i, size_t j,
                                         std::vector<ConflictPoint> points) {
  ReconcileAnalysis::Pair pair;
  pair.i = i;
  pair.j = j;
  pair.points = std::move(points);
  return pair;
}

void FlattenExtensions(const db::Catalog& catalog,
                       const TransactionProvider& provider,
                       const std::vector<TrustedTxn>& txns,
                       ReconcileAnalysis* analysis) {
  const size_t start = analysis->up_ex.size();
  analysis->up_ex.resize(txns.size());
  analysis->flatten_ok.resize(txns.size(), 0);
  for (size_t i = start; i < txns.size(); ++i) {
    auto flat = Flatten(catalog, UpdateFootprint(provider, txns[i].extension));
    if (flat.ok()) {
      analysis->up_ex[i] = *std::move(flat);
      analysis->flatten_ok[i] = 1;
    }
  }
}

void FindExtensionConflicts(const db::Catalog& catalog,
                            const TransactionProvider& provider,
                            const std::vector<TrustedTxn>& txns,
                            size_t first, ReconcileAnalysis* analysis) {
  const size_t n = txns.size();
  // Candidate pairs share a touched key; bucket by key, then test each
  // candidate pair at most once.
  std::unordered_map<RelKey, std::vector<size_t>, RelKeyHash> buckets;
  buckets.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    for (const Update& u : analysis->up_ex[i]) {
      const db::RelationSchema& schema =
          *catalog.GetRelation(u.relation()).value();
      for (RelKey& rk : u.TouchedKeys(schema)) {
        auto& bucket = buckets[std::move(rk)];
        if (bucket.empty() || bucket.back() != i) bucket.push_back(i);
      }
    }
  }

  // Collect the deduplicated candidate pairs, then order them by (i, j)
  // so that testing order and result order are independent of
  // hash-bucket iteration order.
  std::unordered_set<uint64_t> tested;
  tested.reserve(8 * n);
  std::vector<std::pair<size_t, size_t>> pairs;
  // ORCH_LINT(allow:D3): collects a deduplicated pair set that is sorted before any testing; bucket visit order cannot reach the result
  for (const auto& [key, bucket] : buckets) {
    for (size_t a = 0; a < bucket.size(); ++a) {
      for (size_t b = a + 1; b < bucket.size(); ++b) {
        const size_t i = std::min(bucket[a], bucket[b]);
        const size_t j = std::max(bucket[a], bucket[b]);
        if (i == j || j < first) continue;  // head×head pairs already done
        const uint64_t packed = (static_cast<uint64_t>(i) << 32) |
                                static_cast<uint64_t>(j);
        if (tested.insert(packed).second) pairs.emplace_back(i, j);
      }
    }
  }
  std::sort(pairs.begin(), pairs.end());

  for (const auto& [i, j] : pairs) {
    std::vector<ConflictPoint> points = TestCandidatePair(
        catalog, provider, txns[i], txns[j], analysis->up_ex[i],
        analysis->up_ex[j]);
    if (!points.empty()) {
      analysis->conflicts.push_back(MakeAnalysisPair(i, j, std::move(points)));
    }
  }
}

void AppendFootprint(const db::Catalog& catalog,
                     const std::vector<Update>& updates,
                     std::vector<uint64_t>* keys) {
  // RelKeyHash of RelKey{relation, tuple.Project(columns)}.
  const auto add = [keys](std::string_view relation, const db::Tuple& tuple,
                          const std::vector<size_t>& columns) {
    keys->push_back(HashCombine(Fnv1a64(relation), tuple.HashOf(columns)));
  };
  for (const Update& u : updates) {
    const db::RelationSchema& schema =
        *catalog.GetRelation(u.relation()).value();
    for (const db::Tuple* tuple : {&u.old_tuple(), &u.new_tuple()}) {
      if (tuple->empty()) continue;  // an insert's pre-image, a delete's post
      add(u.relation(), *tuple, schema.key_columns());
      for (const db::ForeignKey& fk : catalog.ForeignKeysOf(u.relation())) {
        add(fk.parent_relation, *tuple, fk.child_columns);
      }
    }
  }
}

ReconcileAnalysis AnalyzeExtensions(const db::Catalog& catalog,
                                    const TransactionProvider& provider,
                                    const std::vector<TrustedTxn>& txns) {
  ReconcileAnalysis analysis;
  FlattenExtensions(catalog, provider, txns, &analysis);
  FindExtensionConflicts(catalog, provider, txns, 0, &analysis);
  return analysis;
}

}  // namespace orchestra::core
