#include "core/fetch_cache.h"

#include <algorithm>

namespace orchestra::core {

const SizedTxn* FetchCache::Lookup(const TransactionId& id) const {
  auto it = arena_.find(id);
  if (it == arena_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

void FetchCache::Admit(SizedTxn txn) {
  const TransactionId id = txn.txn.id;
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
  windows_.erase(peer);
}

void FetchCache::SetPendingWindow(ParticipantId peer, int64_t recno,
                                  Epoch stable) {
  windows_[peer].pending = PendingWindow{recno, stable};
}

std::optional<Epoch> FetchCache::TakePendingWindow(ParticipantId peer,
                                                   int64_t recno) {
  auto it = windows_.find(peer);
  if (it == windows_.end()) return std::nullopt;
  Windows& windows = it->second;
  if (!windows.pending.has_value() || windows.pending->recno != recno) {
    return std::nullopt;
  }
  const Epoch stable = windows.pending->stable;
  windows.pending.reset();
  if (windows.watermark.has_value()) {
    windows.watermark = std::max(*windows.watermark, stable);
  }
  return stable;
}

std::optional<Epoch> FetchCache::Watermark(ParticipantId peer) const {
  auto it = windows_.find(peer);
  if (it == windows_.end()) return std::nullopt;
  return it->second.watermark;
}

void FetchCache::SetWatermark(ParticipantId peer, Epoch watermark) {
  windows_[peer].watermark = watermark;
}

}  // namespace orchestra::core
