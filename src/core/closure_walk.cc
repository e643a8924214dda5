#include "core/closure_walk.h"

namespace orchestra::core {

Result<ClosureWalk> ClosureLevel::Walk(std::vector<TransactionId> start,
                                       const TrustPolicy* policy,
                                       const Known& known,
                                       const Lookup& lookup) {
  ClosureLevel level;
  level.policy_ = policy;
  level.roots_ = policy != nullptr;
  while (!start.empty()) {
    level.ids_.clear();
    for (const TransactionId& id : start) level.Enter(id, known);
    start.clear();
    if (!level.ids_.empty()) ORCH_RETURN_IF_ERROR(lookup(level));
    start.swap(level.next_);
    level.roots_ = false;
  }
  return std::move(level.walk_);
}

void ClosureLevel::Enter(const TransactionId& id, const Known& known) {
  auto [it, fresh] = seen_.try_emplace(id, Seen::kDone);
  if (!fresh) {
    if (roots_) return;  // a root listed twice
    if (it->second == Seen::kKnownRoot) walk_.held.push_back(id);
    if (it->second == Seen::kRefusedRoot) ids_.push_back(id);
    it->second = Seen::kDone;
  } else if (!known(id)) {
    ids_.push_back(id);
  } else if (roots_) {
    it->second = Seen::kKnownRoot;
  } else {
    walk_.held.push_back(id);
  }
}

bool ClosureLevel::Refuse(size_t i) {
  seen_[ids_[i]] = Seen::kRefusedRoot;
  return false;
}

bool ClosureLevel::Ship(size_t i, Transaction txn) {
  if (roots_) {
    const int priority = policy_->PriorityOfTransaction(txn);
    if (priority <= 0) return Refuse(i);
    walk_.trusted.emplace_back(ids_[i], priority);
  }
  next_.insert(next_.end(), txn.antecedents.begin(), txn.antecedents.end());
  walk_.transactions.push_back(std::move(txn));
  return true;
}

}  // namespace orchestra::core
