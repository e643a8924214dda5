#ifndef ORCHESTRA_CORE_CLOSURE_WALK_H_
#define ORCHESTRA_CORE_CLOSURE_WALK_H_

#include <functional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/transaction.h"
#include "core/trust.h"

namespace orchestra::core {

/// A peer's verdict on a transaction, as its store recorded it.
enum class RecordedVerdict { kNone, kApplied, kRejected };

/// What a closure walk shipped.
struct ClosureWalk {
  std::vector<Transaction> transactions;  // breadth-first
  std::vector<std::pair<TransactionId, int>> trusted;  // roots, priority
  std::vector<TransactionId> held;  // known ids reached as antecedents
};

/// The fetch's one rule (§5, Fig. 7), shared by both update stores: ship
/// the trusted, undecided roots of the window, then their antecedent
/// closure, minus what the peer already holds. Walk goes breadth-first
/// and hands each level to the store's lookup, which reads every id and
/// passes the peer's recorded verdict on it to Judge:
///  - an id `known` names (the decided overlay) is never looked up; one
///    reached as an antecedent, even after it was met as a root, goes to
///    `held` once;
///  - an id the peer applied stops the walk;
///  - a decided or untrusted root is refused, and asked for again when
///    it turns up as an antecedent (Fig. 5, line 3);
///  - every other id is looked up once.
class ClosureLevel {
 public:
  using Known = std::function<bool(const TransactionId&)>;
  using Lookup = std::function<Status(ClosureLevel&)>;

  /// Walks from `start`: the window's roots, judged under `policy`; or,
  /// with no policy, ids that are all antecedents, so nothing is refused.
  static Result<ClosureWalk> Walk(std::vector<TransactionId> start,
                                  const TrustPolicy* policy,
                                  const Known& known, const Lookup& lookup);

  size_t size() const { return ids_.size(); }
  const TransactionId& id(size_t i) const { return ids_[i]; }
  /// True at level 0 of a walk with a policy: the ids are roots.
  bool roots() const { return roots_; }

  /// Applies the rule to id(i); true when it ships. `load()` returns the
  /// body (a Transaction or Result<Transaction>) and runs only when the
  /// rule needs it. An id the lookup leaves unjudged ships nothing.
  template <typename Load>
  Result<bool> Judge(size_t i, RecordedVerdict verdict, Load&& load) {
    if (verdict == RecordedVerdict::kApplied) return false;
    if (roots_ && verdict == RecordedVerdict::kRejected) return Refuse(i);
    Result<Transaction> body = load();
    if (!body.ok()) return body.status();
    return Ship(i, std::move(body).value());
  }

 private:
  enum class Seen { kDone, kRefusedRoot, kKnownRoot };

  void Enter(const TransactionId& id, const Known& known);
  bool Refuse(size_t i);
  bool Ship(size_t i, Transaction txn);

  const TrustPolicy* policy_ = nullptr;
  bool roots_ = false;
  std::vector<TransactionId> ids_;
  std::vector<TransactionId> next_;  // antecedents of what shipped
  std::unordered_map<TransactionId, Seen, TransactionIdHash> seen_;
  ClosureWalk walk_;
};

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_CLOSURE_WALK_H_
