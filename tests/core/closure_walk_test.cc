// Unit tests for the antecedent-closure walk both update stores run
// (Fig. 7): breadth-first order, one lookup per id, refused roots asked
// again as antecedents, applied ids stopping the walk, and the decided
// overlay's ids reported as held only when reached as antecedents. The
// store is a fake whose lookup logs every id it is asked for.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "core/closure_walk.h"
#include "test_util.h"

namespace orchestra::core {
namespace {

using orchestra::testing::Ins;

constexpr ParticipantId kPeer = 1;
constexpr ParticipantId kTrusted = 2;
constexpr ParticipantId kUntrusted = 3;

TransactionId Id(ParticipantId origin, uint64_t seq) { return {origin, seq}; }

std::vector<TransactionId> IdsOf(const std::vector<Transaction>& txns) {
  std::vector<TransactionId> ids;
  for (const Transaction& txn : txns) ids.push_back(txn.id);
  return ids;
}

/// Bodies and the peer's recorded verdicts by id, plus the overlay; every
/// level the walk asks for and every body it loads is logged.
class FakeStore {
 public:
  FakeStore() : policy_(kPeer) { policy_.TrustPeer(kTrusted, 1); }

  void Add(const TransactionId& id, std::vector<TransactionId> antecedents,
           RecordedVerdict verdict = RecordedVerdict::kNone) {
    Transaction txn;
    txn.id = id;
    txn.updates = {Ins("rat", "p", "f", id.origin)};
    txn.antecedents = std::move(antecedents);
    bodies_[id] = std::move(txn);
    verdicts_[id] = verdict;
  }
  void Know(const TransactionId& id) { known_.insert(id); }

  Result<ClosureWalk> Walk(std::vector<TransactionId> roots) {
    return ClosureLevel::Walk(std::move(roots), &policy_, Known(), Lookup());
  }
  Result<ClosureWalk> WalkNeverKnown(std::vector<TransactionId> roots) {
    return ClosureLevel::Walk(
        std::move(roots), &policy_,
        [](const TransactionId&) { return false; }, Lookup());
  }
  Result<ClosureWalk> WalkFromAntecedents(std::vector<TransactionId> ids) {
    return ClosureLevel::Walk(std::move(ids), nullptr, Known(), Lookup());
  }

  /// Each level's ids, in the order the walk asked for them.
  std::vector<std::vector<TransactionId>> levels;
  /// How often each id was asked for, and how often its body was read.
  std::map<TransactionId, int> asked;
  std::map<TransactionId, int> loaded;

 private:
  ClosureLevel::Known Known() const {
    return [this](const TransactionId& id) { return known_.count(id) != 0; };
  }
  ClosureLevel::Lookup Lookup() {
    return [this](ClosureLevel& level) -> Status {
      levels.emplace_back();
      for (size_t i = 0; i < level.size(); ++i) {
        const TransactionId& id = level.id(i);
        levels.back().push_back(id);
        ++asked[id];
        auto it = bodies_.find(id);
        if (it == bodies_.end()) continue;  // the store lost it
        auto shipped = level.Judge(i, verdicts_[id], [&] {
          ++loaded[id];
          return it->second;
        });
        if (!shipped.ok()) return shipped.status();
      }
      return Status::OK();
    };
  }

  TrustPolicy policy_;
  std::map<TransactionId, Transaction> bodies_;
  std::map<TransactionId, RecordedVerdict> verdicts_;
  std::set<TransactionId> known_;
};

TEST(ClosureWalkTest, ShipsRootsThenAntecedentsBreadthFirst) {
  FakeStore store;
  const TransactionId a = Id(kTrusted, 1), b = Id(kTrusted, 2);
  const TransactionId c = Id(kTrusted, 3), d = Id(kTrusted, 4);
  const TransactionId e = Id(kTrusted, 5), f = Id(kTrusted, 6);
  store.Add(a, {c, d});
  store.Add(b, {e});
  store.Add(c, {f});
  store.Add(d, {});
  store.Add(e, {});
  store.Add(f, {});
  auto walk = store.Walk({a, b});
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_EQ(IdsOf(walk->transactions),
            (std::vector<TransactionId>{a, b, c, d, e, f}));
  EXPECT_EQ(walk->trusted,
            (std::vector<std::pair<TransactionId, int>>{{a, 1}, {b, 1}}));
  EXPECT_EQ(store.levels, (std::vector<std::vector<TransactionId>>{
                              {a, b}, {c, d, e}, {f}}));
  EXPECT_TRUE(walk->held.empty());
}

TEST(ClosureWalkTest, LooksUpEachIdOnce) {
  // A diamond (a and b both need c), an id met at two depths (d, from a
  // and from c), and a root that is also an antecedent (b, from a).
  FakeStore store;
  const TransactionId a = Id(kTrusted, 1), b = Id(kTrusted, 2);
  const TransactionId c = Id(kTrusted, 3), d = Id(kTrusted, 4);
  store.Add(a, {b, c, d});
  store.Add(b, {c});
  store.Add(c, {d});
  store.Add(d, {});
  auto walk = store.Walk({a, b});
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_EQ(IdsOf(walk->transactions),
            (std::vector<TransactionId>{a, b, c, d}));
  for (const TransactionId& id : {a, b, c, d}) {
    EXPECT_EQ(store.asked[id], 1) << id.ToString();
    EXPECT_EQ(store.loaded[id], 1) << id.ToString();
  }
}

TEST(ClosureWalkTest, RefusedRootIsAskedForAgainAsAnAntecedent) {
  // u is untrusted and r rejected by the peer: both are refused as
  // roots, then shipped as the antecedents of t, whose extension needs
  // them. The rejected root's refusal needs no body.
  FakeStore store;
  const TransactionId t = Id(kTrusted, 1);
  const TransactionId u = Id(kUntrusted, 1);
  const TransactionId r = Id(kTrusted, 2);
  store.Add(u, {});
  store.Add(r, {}, RecordedVerdict::kRejected);
  store.Add(t, {u, r});
  auto walk = store.Walk({u, r, t});
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_EQ(IdsOf(walk->transactions), (std::vector<TransactionId>{t, u, r}));
  EXPECT_EQ(walk->trusted,
            (std::vector<std::pair<TransactionId, int>>{{t, 1}}));
  EXPECT_EQ(store.levels,
            (std::vector<std::vector<TransactionId>>{{u, r, t}, {u, r}}));
  EXPECT_EQ(store.loaded[u], 2);
  EXPECT_EQ(store.loaded[r], 1);
}

TEST(ClosureWalkTest, RefusedRootNeverNeededIsNotAskedAgain) {
  FakeStore store;
  const TransactionId t = Id(kTrusted, 1);
  const TransactionId u = Id(kUntrusted, 1);
  store.Add(u, {});
  store.Add(t, {});
  auto walk = store.Walk({u, t});
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_EQ(IdsOf(walk->transactions), (std::vector<TransactionId>{t}));
  EXPECT_EQ(store.asked[u], 1);
}

TEST(ClosureWalkTest, AppliedIdStopsTheWalk) {
  // t needs p, which the peer applied; q lies behind p. An applied root
  // is refused as decided and not asked for again as an antecedent.
  FakeStore store;
  const TransactionId t = Id(kTrusted, 1), p = Id(kTrusted, 2);
  const TransactionId q = Id(kTrusted, 3), s = Id(kTrusted, 4);
  store.Add(t, {p, s});
  store.Add(p, {q}, RecordedVerdict::kApplied);
  store.Add(q, {});
  store.Add(s, {}, RecordedVerdict::kApplied);
  auto walk = store.Walk({s, t});
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_EQ(IdsOf(walk->transactions), (std::vector<TransactionId>{t}));
  EXPECT_EQ(store.levels,
            (std::vector<std::vector<TransactionId>>{{s, t}, {p}}));
  EXPECT_EQ(store.asked.count(q), 0u);
  EXPECT_EQ(store.loaded.count(p), 0u);  // the verdict alone settles it
  EXPECT_EQ(store.loaded.count(s), 0u);
}

TEST(ClosureWalkTest, KnownIdIsHeldOnlyWhenReachedAsAnAntecedent) {
  // k1 is met only as an antecedent (twice); k2 first as a root, then as
  // an antecedent; k3 only as a root. None is looked up; k1 and k2 are
  // held, once each.
  FakeStore store;
  const TransactionId t = Id(kTrusted, 1), v = Id(kTrusted, 2);
  const TransactionId k1 = Id(kTrusted, 3), k2 = Id(kTrusted, 4);
  const TransactionId k3 = Id(kTrusted, 5);
  store.Add(t, {k1, k2});
  store.Add(v, {k1});
  for (const TransactionId& k : {k1, k2, k3}) {
    store.Add(k, {}, RecordedVerdict::kRejected);
    store.Know(k);
  }
  auto walk = store.Walk({k2, k3, t, v});
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_EQ(IdsOf(walk->transactions), (std::vector<TransactionId>{t, v}));
  EXPECT_EQ(walk->held, (std::vector<TransactionId>{k1, k2}));
  for (const TransactionId& k : {k1, k2, k3}) {
    EXPECT_EQ(store.asked.count(k), 0u) << k.ToString();
  }
}

TEST(ClosureWalkTest, NeverKnownPredicateHoldsNothing) {
  // The same window under the kFull reference's predicate: the rejected
  // ids are refused as roots and shipped as antecedents.
  FakeStore store;
  const TransactionId t = Id(kTrusted, 1);
  const TransactionId k1 = Id(kTrusted, 3), k2 = Id(kTrusted, 4);
  store.Add(t, {k1, k2});
  store.Add(k1, {}, RecordedVerdict::kRejected);
  store.Add(k2, {}, RecordedVerdict::kRejected);
  store.Know(k1);
  store.Know(k2);
  auto walk = store.WalkNeverKnown({k2, t});
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_TRUE(walk->held.empty());
  EXPECT_EQ(IdsOf(walk->transactions),
            (std::vector<TransactionId>{t, k1, k2}));
}

TEST(ClosureWalkTest, WalkFromAntecedentsRefusesNothing) {
  // The network-centric tail: untrusted and rejected ids ship, applied
  // and known ones stop the walk, and nothing is trusted.
  FakeStore store;
  const TransactionId u = Id(kUntrusted, 1), r = Id(kTrusted, 1);
  const TransactionId p = Id(kTrusted, 2), k = Id(kTrusted, 3);
  const TransactionId q = Id(kTrusted, 4);
  store.Add(u, {r, k});
  store.Add(r, {p}, RecordedVerdict::kRejected);
  store.Add(p, {q}, RecordedVerdict::kApplied);
  store.Add(k, {});
  store.Add(q, {});
  store.Know(k);
  auto walk = store.WalkFromAntecedents({u});
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_EQ(IdsOf(walk->transactions), (std::vector<TransactionId>{u, r}));
  EXPECT_TRUE(walk->trusted.empty());
  EXPECT_EQ(walk->held, (std::vector<TransactionId>{k}));
  EXPECT_EQ(store.asked.count(q), 0u);
}

TEST(ClosureWalkTest, LostIdShipsNothingAndAFailedLoadEndsTheWalk) {
  FakeStore store;
  const TransactionId t = Id(kTrusted, 1), lost = Id(kTrusted, 2);
  store.Add(t, {lost});
  auto walk = store.Walk({t});
  ASSERT_TRUE(walk.ok()) << walk.status().ToString();
  EXPECT_EQ(IdsOf(walk->transactions), (std::vector<TransactionId>{t}));
  EXPECT_EQ(store.asked[lost], 1);

  const TrustPolicy policy(kPeer);
  auto failed = ClosureLevel::Walk(
      {t}, &policy, [](const TransactionId&) { return false; },
      [](ClosureLevel& level) -> Status {
        return level
            .Judge(0, RecordedVerdict::kNone,
                   []() -> Result<Transaction> {
                     return Status::DataLoss("row failed verification");
                   })
            .status();
      });
  EXPECT_EQ(failed.status().code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace orchestra::core
