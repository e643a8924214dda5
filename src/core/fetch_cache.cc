#include "core/fetch_cache.h"

namespace orchestra::core {

const Transaction* FetchCache::Lookup(const TransactionId& id) const {
  auto it = arena_.find(id);
  if (it == arena_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

void FetchCache::Admit(Transaction txn) {
  const TransactionId id = txn.id;
  if (arena_.emplace(id, std::move(txn)).second) ++stats_.admitted;
}

void FetchCache::MarkDecided(ParticipantId peer, const TransactionId& id) {
  decided_[peer].insert(id);
}

bool FetchCache::KnownDecided(ParticipantId peer,
                              const TransactionId& id) const {
  auto it = decided_.find(peer);
  if (it == decided_.end() || it->second.count(id) == 0) return false;
  ++stats_.suppressed;
  return true;
}

void FetchCache::ResetApplied(ParticipantId peer, TxnIdSet applied) {
  decided_[peer] = std::move(applied);
  pending_.erase(peer);
}

void FetchCache::SetPendingWindow(ParticipantId peer, int64_t recno,
                                  Epoch stable) {
  pending_[peer] = PendingWindow{recno, stable};
}

std::optional<Epoch> FetchCache::TakePendingWindow(ParticipantId peer,
                                                   int64_t recno) {
  auto it = pending_.find(peer);
  if (it == pending_.end() || it->second.recno != recno) return std::nullopt;
  const Epoch stable = it->second.stable;
  pending_.erase(it);
  return stable;
}

}  // namespace orchestra::core
