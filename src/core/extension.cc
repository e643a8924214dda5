#include "core/extension.h"

#include <algorithm>

namespace orchestra::core {

namespace {

// The closure of `root` through antecedents, sorted by order of
// appearance in ∆: epoch, then originator, then local sequence number
// (ids are assigned in increasing order, §3.2). `load` returns an id's
// body, or null for an antecedent that ends the closure.
template <typename Load>
Result<std::vector<TransactionId>> SortedClosure(const TransactionId& root,
                                                 Load&& load) {
  std::vector<std::pair<Epoch, TransactionId>> with_epochs;
  TxnIdSet visited{root};
  std::vector<TransactionId> frontier{root};
  while (!frontier.empty()) {
    const TransactionId id = frontier.back();
    frontier.pop_back();
    ORCH_ASSIGN_OR_RETURN(const Transaction* txn, load(id));
    if (txn == nullptr) continue;
    with_epochs.emplace_back(txn->epoch, id);
    for (const TransactionId& ante : txn->antecedents) {
      if (visited.insert(ante).second) frontier.push_back(ante);
    }
  }
  std::sort(with_epochs.begin(), with_epochs.end());
  std::vector<TransactionId> result;
  result.reserve(with_epochs.size());
  for (const auto& [epoch, id] : with_epochs) result.push_back(id);
  return result;
}

}  // namespace

Result<std::vector<TransactionId>> ComputeExtension(
    const TransactionProvider& provider, const TransactionId& root,
    const TxnIdSet& already_applied) {
  return SortedClosure(
      root, [&](const TransactionId& id) -> Result<const Transaction*> {
        if (id != root && already_applied.count(id) != 0) {
          return nullptr;  // Definition 3 stop
        }
        return provider.Get(id);
      });
}

std::vector<TransactionId> ComputeExtensionFromBundle(
    const TransactionMap& bundle, const TransactionId& root) {
  // A member missing from the bundle reads as already applied.
  return SortedClosure(
             root,
             [&](const TransactionId& id) -> Result<const Transaction*> {
               if (!bundle.Contains(id)) return nullptr;
               return bundle.Get(id);
             })
      .value();
}

bool Subsumes(const std::vector<TransactionId>& outer,
              const std::vector<TransactionId>& inner) {
  if (inner.size() > outer.size()) return false;
  TxnIdSet outer_set(outer.begin(), outer.end());
  for (const TransactionId& id : inner) {
    if (outer_set.count(id) == 0) return false;
  }
  return true;
}

std::vector<Update> UpdateFootprint(const TransactionProvider& provider,
                                    const std::vector<TransactionId>& txns,
                                    const TxnIdSet& exclude) {
  std::vector<Update> out;
  for (const TransactionId& id : txns) {
    if (exclude.count(id) != 0) continue;
    auto txn = provider.Get(id);
    if (!txn.ok()) continue;  // resolved during ComputeExtension; defensive
    for (const Update& u : (*txn)->updates) out.push_back(u);
  }
  return out;
}

}  // namespace orchestra::core
