#ifndef ORCHESTRA_TESTS_CORE_PARTICIPANT_TEST_PEER_H_
#define ORCHESTRA_TESTS_CORE_PARTICIPANT_TEST_PEER_H_

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/participant.h"

namespace orchestra::core {

/// Test-only access to a participant's soft state: the carry set behind
/// incremental reconsideration, the dirty values, the deferred backlog
/// with its priorities and the transaction cache's retention rule.
class ParticipantTestPeer {
 public:
  /// Empty when the transaction cache keeps its retention rule: no
  /// applied transaction's body is cached, and every deferred one's
  /// is. Otherwise the first breach found.
  static std::string CacheRetentionBreach(const Participant& p) {
    for (const TransactionId& id : p.applied_) {
      if (p.txn_cache_.Contains(id)) {
        return "applied " + id.ToString() + " is still cached";
      }
    }
    for (const auto& [id, info] : p.deferred_) {
      if (!p.txn_cache_.Contains(id)) {
        return "deferred " + id.ToString() + " is not cached";
      }
    }
    return "";
  }

  /// Drops every carried verdict, so the next run analyses the whole
  /// backlog — the reference that carrying runs are diffed against.
  static void ForgetCarriedVerdicts(Participant& p) {
    p.ForgetCarriedVerdicts();
  }

  /// Dirty values, sorted.
  static std::vector<RelKey> Dirty(const Participant& p) {
    std::vector<RelKey> keys(p.dirty_.begin(), p.dirty_.end());
    std::sort(keys.begin(), keys.end());
    return keys;
  }

  /// (id, priority) of every deferred transaction, in id order.
  static std::vector<std::pair<TransactionId, int>> Deferred(
      const Participant& p) {
    std::vector<std::pair<TransactionId, int>> out;
    for (const auto& [id, info] : p.deferred_) {
      out.emplace_back(id, info.priority);
    }
    return out;
  }
};

}  // namespace orchestra::core

#endif  // ORCHESTRA_TESTS_CORE_PARTICIPANT_TEST_PEER_H_
