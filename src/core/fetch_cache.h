#ifndef ORCHESTRA_CORE_FETCH_CACHE_H_
#define ORCHESTRA_CORE_FETCH_CACHE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>

#include "core/extension.h"
#include "core/ids.h"
#include "core/transaction.h"

namespace orchestra::core {

/// A decoded transaction with the length of the encoding it was decoded
/// from or encoded into: the bytes a store charges for shipping it, kept
/// so that no store runs the codec's count pass again on a body whose
/// bytes it already had.
struct SizedTxn {
  Transaction txn;
  int64_t bytes = 0;
};

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
///    never be cached. Each body keeps its encoded length (SizedTxn).
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
///
///  - for a store whose watermark lives remotely (the DHT's peer
///    coordinator), the client's *copy of the watermark*, so that a
///    fetch can scan its window without waiting for the coordinator's
///    reply. An incarnation's first fetch takes the copy from that reply
///    (SetWatermark). After that it moves exactly where the
///    coordinator's does: when a recording's completion witness lands
///    and takes the pending window, the copy becomes the larger of the
///    two (TakePendingWindow), so it never moves back. ResetApplied
///    drops it with the pending window.
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
  const SizedTxn* Lookup(const TransactionId& id) const;

  /// Admits a decoded transaction with its encoded length. The caller
  /// must have verified the transaction's epoch is committed.
  void Admit(SizedTxn txn);

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
  /// drops its pending window and watermark copy: recovery and bootstrap
  /// start a new incarnation, which holds no rejected bodies (so every
  /// rejected id leaves the overlay), will record nothing against the
  /// window its predecessor fetched, and reads its watermark afresh.
  void ResetApplied(ParticipantId peer, TxnIdSet applied);

  /// Holds the window the peer's fetch `recno` consumed, up to stable
  /// epoch `stable`, replacing any earlier one.
  void SetPendingWindow(ParticipantId peer, int64_t recno, Epoch stable);
  /// Removes and returns the stable epoch of the peer's pending window
  /// when that window was fetched under `recno`, advancing the watermark
  /// copy (if the peer holds one) to at least that epoch; nullopt
  /// (keeping any window of another recno) otherwise. The caller takes
  /// the window exactly when it commits it as the peer's watermark.
  std::optional<Epoch> TakePendingWindow(ParticipantId peer, int64_t recno);

  /// The peer's copy of its watermark; nullopt until SetWatermark in
  /// this incarnation.
  std::optional<Epoch> Watermark(ParticipantId peer) const;
  /// Holds `watermark`, read from the store's authoritative copy.
  void SetWatermark(ParticipantId peer, Epoch watermark);

  const Stats& stats() const { return stats_; }

 private:
  std::unordered_map<TransactionId, SizedTxn, TransactionIdHash> arena_;
  std::unordered_map<ParticipantId, TxnIdSet> decided_;
  struct PendingWindow {
    int64_t recno = 0;
    Epoch stable = 0;
  };
  /// The per-peer slot: the pending window and the watermark copy.
  struct Windows {
    std::optional<PendingWindow> pending;
    std::optional<Epoch> watermark;
  };
  std::unordered_map<ParticipantId, Windows> windows_;
  mutable Stats stats_;
};

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_FETCH_CACHE_H_
