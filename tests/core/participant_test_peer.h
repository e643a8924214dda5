#ifndef ORCHESTRA_TESTS_CORE_PARTICIPANT_TEST_PEER_H_
#define ORCHESTRA_TESTS_CORE_PARTICIPANT_TEST_PEER_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "core/participant.h"

namespace orchestra::core {

/// Test-only access to a participant's soft state: the carry set behind
/// incremental reconsideration, the dirty values and the deferred
/// backlog with its priorities.
class ParticipantTestPeer {
 public:
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
