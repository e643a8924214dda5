// Unit tests for the FetchCache behind incremental (delta) fetch: the
// shared decoded-transaction arena, and the per-peer decided overlays
// that suppress redundant per-key lookups, the pending windows a store
// commits with the decisions and the client's copy of the watermark.
#include <gtest/gtest.h>

#include "core/fetch_cache.h"

namespace orchestra::core {
namespace {

Transaction MakeTxn(ParticipantId origin, uint64_t seq, Epoch epoch) {
  Transaction txn;
  txn.id = {origin, seq};
  txn.epoch = epoch;
  return txn;
}

TEST(FetchCacheTest, LookupMissesThenHitsAfterAdmit) {
  FetchCache cache;
  const TransactionId id{1, 7};
  EXPECT_EQ(cache.Lookup(id), nullptr);
  EXPECT_EQ(cache.stats().misses, 1);
  EXPECT_EQ(cache.stats().hits, 0);

  cache.Admit({MakeTxn(1, 7, 3), /*bytes=*/42});
  EXPECT_EQ(cache.stats().admitted, 1);
  const SizedTxn* hit = cache.Lookup(id);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->txn.id, id);
  EXPECT_EQ(hit->txn.epoch, 3);
  EXPECT_EQ(hit->bytes, 42);  // the length it was admitted with
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.arena_size(), 1u);
}

TEST(FetchCacheTest, AppliedSetsArePerPeer) {
  FetchCache cache;
  const TransactionId id{3, 9};
  EXPECT_FALSE(cache.KnownDecided(1, id));
  EXPECT_EQ(cache.stats().suppressed, 0);

  cache.MarkDecided(1, id);
  EXPECT_TRUE(cache.KnownDecided(1, id));
  EXPECT_EQ(cache.stats().suppressed, 1);
  // A different peer's overlay is untouched.
  EXPECT_FALSE(cache.KnownDecided(2, id));
}

// A rejected id the peer holds lives in the same overlay as the applied
// ones: one probe answers both, and a hit counts one suppression.
TEST(FetchCacheTest, RejectedIdsShareTheOverlayAndItsProbe) {
  FetchCache cache;
  const TransactionId applied{3, 1};
  const TransactionId rejected{4, 2};
  cache.MarkDecided(1, applied);
  cache.MarkDecided(1, rejected);
  EXPECT_TRUE(cache.KnownDecided(1, rejected));
  EXPECT_EQ(cache.stats().suppressed, 1);
  EXPECT_TRUE(cache.KnownDecided(1, applied));
  EXPECT_EQ(cache.stats().suppressed, 2);
  // A miss counts nothing.
  EXPECT_FALSE(cache.KnownDecided(1, {4, 3}));
  EXPECT_FALSE(cache.KnownDecided(2, rejected));
  EXPECT_EQ(cache.stats().suppressed, 2);
}

TEST(FetchCacheTest, ResetAppliedReplacesTheOverlayWholesale) {
  FetchCache cache;
  cache.MarkDecided(1, {1, 1});
  cache.MarkDecided(1, {1, 2});

  TxnIdSet authoritative;
  authoritative.insert({2, 5});
  cache.ResetApplied(1, std::move(authoritative));
  EXPECT_FALSE(cache.KnownDecided(1, {1, 1}));
  EXPECT_FALSE(cache.KnownDecided(1, {1, 2}));
  EXPECT_TRUE(cache.KnownDecided(1, {2, 5}));
}

// Recovery and bootstrap hand over the applied set only: a new
// incarnation of the peer knows its rejections by id, without bodies,
// so every rejected id must leave the overlay.
TEST(FetchCacheTest, ResetAppliedDropsRejectedIds) {
  FetchCache cache;
  const TransactionId applied{2, 1};
  const TransactionId rejected{3, 1};
  cache.MarkDecided(1, applied);
  cache.MarkDecided(1, rejected);

  TxnIdSet authoritative;
  authoritative.insert(applied);
  cache.ResetApplied(1, std::move(authoritative));
  EXPECT_FALSE(cache.KnownDecided(1, rejected));
  EXPECT_TRUE(cache.KnownDecided(1, applied));
}

// The window is committed at most once, and only by the recording of
// the fetch that read it.
TEST(FetchCacheTest, PendingWindowIsTakenOnceUnderItsRecno) {
  FetchCache cache;
  EXPECT_EQ(cache.TakePendingWindow(9, 1), std::nullopt);
  cache.SetPendingWindow(9, /*recno=*/2, /*stable=*/4);
  EXPECT_EQ(cache.TakePendingWindow(9, 1), std::nullopt);  // another recno
  EXPECT_EQ(cache.TakePendingWindow(8, 2), std::nullopt);  // another peer
  EXPECT_EQ(cache.TakePendingWindow(9, 2), std::optional<Epoch>(4));
  EXPECT_EQ(cache.TakePendingWindow(9, 2), std::nullopt);  // taken

  // A later fetch replaces a window nobody recorded.
  cache.SetPendingWindow(9, 3, 5);
  cache.SetPendingWindow(9, 4, 6);
  EXPECT_EQ(cache.TakePendingWindow(9, 3), std::nullopt);
  EXPECT_EQ(cache.TakePendingWindow(9, 4), std::optional<Epoch>(6));
}

// A recovered or bootstrapped incarnation records under its own recno,
// which can equal the interrupted fetch's: the reset must drop the
// window that fetch left, or that recording would commit it unseen.
TEST(FetchCacheTest, ResetAppliedDropsThePendingWindow) {
  FetchCache cache;
  cache.SetPendingWindow(5, /*recno=*/7, /*stable=*/11);
  cache.ResetApplied(5, TxnIdSet{});
  EXPECT_EQ(cache.TakePendingWindow(5, 7), std::nullopt);
}

// The client's copy of its watermark moves only where the store's does:
// when the window is taken (the witness landed), never back, and not at
// all for a peer that holds no copy.
TEST(FetchCacheTest, TakingTheWindowAdvancesTheWatermarkCopy) {
  FetchCache cache;
  EXPECT_EQ(cache.Watermark(3), std::nullopt);
  cache.SetWatermark(3, 4);
  EXPECT_EQ(cache.Watermark(3), std::optional<Epoch>(4));
  cache.SetPendingWindow(3, /*recno=*/1, /*stable=*/6);
  EXPECT_EQ(cache.Watermark(3), std::optional<Epoch>(4));  // not yet
  EXPECT_EQ(cache.TakePendingWindow(3, 2), std::nullopt);  // another recno
  EXPECT_EQ(cache.Watermark(3), std::optional<Epoch>(4));
  EXPECT_EQ(cache.TakePendingWindow(3, 1), std::optional<Epoch>(6));
  EXPECT_EQ(cache.Watermark(3), std::optional<Epoch>(6));
  // A window behind the copy leaves it where it is.
  cache.SetPendingWindow(3, 2, 5);
  EXPECT_EQ(cache.TakePendingWindow(3, 2), std::optional<Epoch>(5));
  EXPECT_EQ(cache.Watermark(3), std::optional<Epoch>(6));
  // A peer without a copy gets none from a taken window: its next fetch
  // reads the store's.
  cache.SetPendingWindow(8, 1, 9);
  EXPECT_EQ(cache.TakePendingWindow(8, 1), std::optional<Epoch>(9));
  EXPECT_EQ(cache.Watermark(8), std::nullopt);
}

// A new incarnation reads its watermark afresh.
TEST(FetchCacheTest, ResetAppliedDropsTheWatermarkCopy) {
  FetchCache cache;
  cache.SetWatermark(5, 11);
  cache.ResetApplied(5, TxnIdSet{});
  EXPECT_EQ(cache.Watermark(5), std::nullopt);
}

}  // namespace
}  // namespace orchestra::core
