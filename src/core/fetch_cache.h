#ifndef ORCHESTRA_CORE_FETCH_CACHE_H_
#define ORCHESTRA_CORE_FETCH_CACHE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/extension.h"
#include "core/ids.h"
#include "core/transaction.h"

namespace orchestra::core {

/// Store-side cache powering incremental (delta) fetch, per the paper's
/// §5.2 model where each reconciliation consumes only the stable window
/// past the peer's watermark.
///
/// Two parts, with different sharing:
///
///  - a *decoded-transaction arena*, shared by every peer: committed
///    transactions are immutable (a committed id can never be
///    republished), so each is decoded once and served from the arena
///    on every later reconciliation, keyed by (epoch, txn id). Only
///    transactions under a committed epoch may be admitted — residue of
///    an aborted publish can be overwritten by a republish and must
///    never be cached.
///
///  - *per-peer* bookkeeping: the decided overlay — the ids whose fetch
///    lookup the peer needs nothing from — plus the peer's pending
///    window: the stable epoch its last fetch read up to, which the
///    store commits as the peer's watermark only together with the
///    decisions that consumed the window. An id enters the overlay only
///    at a commit point, once the store has durably recorded that the
///    peer
///      * applied it (publish acked, decisions recorded, bootstrap
///        adopted) — its effects are in the peer's instance; or
///      * rejected it in its current incarnation (decisions recorded) —
///        every id a peer records as rejected came to it with its body,
///        so it holds that body and computes any extension through it
///        from its own transaction cache.
///    A hit therefore suppresses a per-key lookup whose answer would be
///    "not relevant" or a body the peer already has; a miss falls
///    through to the authoritative check. A recovered or bootstrapped
///    peer is a new incarnation that knows its rejections by id only,
///    and that never saw its predecessor's last fetch, so recovery and
///    bootstrap reset the overlay to the applied ids and drop the
///    pending window (ResetApplied). Network-centric fetches analyse
///    the extension store-side and must put the suppressed rejected
///    bodies back into their bundle from the store's own state.
class FetchCache {
 public:
  struct Stats {
    int64_t hits = 0;        // arena lookups served without a decode
    int64_t misses = 0;      // arena lookups that had to decode
    int64_t admitted = 0;    // transactions decoded into the arena
    int64_t suppressed = 0;  // per-key lookups skipped via the overlay
  };

  /// --- Decoded-transaction arena --------------------------------------

  /// The cached transaction, or nullptr. Counts a hit or miss.
  const Transaction* Lookup(const TransactionId& id) const;

  /// Admits a decoded transaction. The caller must have verified the
  /// transaction's epoch is committed.
  void Admit(Transaction txn);

  size_t arena_size() const { return arena_.size(); }

  /// --- Per-peer decided overlays and pending windows ----------------

  /// Adds `id` to the peer's overlay. Only at a commit point, and only
  /// for an id the store durably recorded as applied by `peer`, or as
  /// rejected by it in its current incarnation.
  void MarkDecided(ParticipantId peer, const TransactionId& id);
  /// True when a lookup of `id` on behalf of `peer` can be skipped (the
  /// peer applied it, or rejected it and holds it). Counts a suppression
  /// on hit.
  bool KnownDecided(ParticipantId peer, const TransactionId& id) const;
  /// Replaces the peer's overlay with its authoritative applied set and
  /// drops its pending window: recovery and bootstrap start a new
  /// incarnation, which holds no rejected bodies (so every rejected id
  /// leaves the overlay) and will record nothing against the window its
  /// predecessor fetched.
  void ResetApplied(ParticipantId peer, TxnIdSet applied);

  /// Holds the window the peer's fetch `recno` consumed, up to stable
  /// epoch `stable`, replacing any earlier one.
  void SetPendingWindow(ParticipantId peer, int64_t recno, Epoch stable);
  /// Removes and returns the stable epoch of the peer's pending window
  /// when that window was fetched under `recno`; nullopt (keeping any
  /// window of another recno) otherwise.
  std::optional<Epoch> TakePendingWindow(ParticipantId peer, int64_t recno);

  const Stats& stats() const { return stats_; }

 private:
  std::unordered_map<TransactionId, Transaction, TransactionIdHash> arena_;
  std::unordered_map<ParticipantId, TxnIdSet> decided_;
  struct PendingWindow {
    int64_t recno = 0;
    Epoch stable = 0;
  };
  std::unordered_map<ParticipantId, PendingWindow> pending_;
  mutable Stats stats_;
};

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_FETCH_CACHE_H_
