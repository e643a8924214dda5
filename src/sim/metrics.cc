#include "sim/metrics.h"

#include <map>
#include <set>

#include "common/check.h"
#include "db/table.h"

namespace orchestra::sim {

namespace {

// key -> (distinct present values, number of peers holding the key)
using KeyStates = std::map<db::Tuple, std::pair<std::set<db::Tuple>, size_t>>;

KeyStates CollectStates(
    const std::vector<const core::Participant*>& participants,
    std::string_view relation) {
  KeyStates states;
  for (const core::Participant* p : participants) {
    auto table = p->instance().GetTable(relation);
    ORCH_CHECK(table.ok(), "relation missing from instance");
    for (const db::Tuple& tuple : (*table)->Rows()) {
      const db::Tuple key = (*table)->schema().KeyOf(tuple);
      auto& [values, holders] = states[key];
      values.insert(tuple);
      holders += 1;
    }
  }
  return states;
}

}  // namespace

double StateRatio(const std::vector<const core::Participant*>& participants,
                  std::string_view relation) {
  ORCH_CHECK(!participants.empty());
  const KeyStates states = CollectStates(participants, relation);
  if (states.empty()) return 1.0;
  double total = 0;
  for (const auto& [key, entry] : states) {
    const auto& [values, holders] = entry;
    size_t distinct = values.size();
    if (holders < participants.size()) distinct += 1;  // "lack of a value"
    total += static_cast<double>(distinct);
  }
  return total / static_cast<double>(states.size());
}

double FullAgreementFraction(
    const std::vector<const core::Participant*>& participants,
    std::string_view relation) {
  ORCH_CHECK(!participants.empty());
  const KeyStates states = CollectStates(participants, relation);
  if (states.empty()) return 1.0;
  size_t agreed = 0;
  for (const auto& [key, entry] : states) {
    const auto& [values, holders] = entry;
    if (values.size() == 1 && holders == participants.size()) ++agreed;
  }
  return static_cast<double>(agreed) / static_cast<double>(states.size());
}

}  // namespace orchestra::sim
