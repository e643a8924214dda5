#ifndef ORCHESTRA_CORE_CONFLICT_H_
#define ORCHESTRA_CORE_CONFLICT_H_

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/schema.h"
#include "core/update.h"

namespace orchestra::core {

/// Classification of why two updates conflict (§4). The ⟨type, value⟩
/// pair keys conflict groups during deferral (§5).
enum class ConflictType {
  /// Both insertions share key attributes but differ in some other
  /// attribute.
  kInsertInsert = 0,
  /// One update deletes a key that the other inserts or replaces
  /// (simultaneous remove-and-replace).
  kDeleteVsWrite = 1,
  /// Both replacements start from the same source tuple but produce
  /// different values.
  kReplaceReplace = 2,
  /// Both updates claim the same key with different resulting tuples in a
  /// way not covered above (e.g. an insert racing a replacement *into*
  /// the same key) — §3's "results in a data instance that violates a
  /// constraint" case for pairs of updates.
  kKeyCollision = 3,
};

std::string_view ConflictTypeName(ConflictType type);

/// A detected conflict between two updates: its type and the contested
/// (relation, key) value. Identifies the conflict group it belongs to.
struct ConflictPoint {
  ConflictType type;
  RelKey key;

  std::string ToString() const;

  friend bool operator==(const ConflictPoint& a, const ConflictPoint& b) {
    return a.type == b.type && a.key == b.key;
  }
  friend bool operator<(const ConflictPoint& a, const ConflictPoint& b) {
    if (a.type != b.type) return a.type < b.type;
    return a.key < b.key;
  }
};

struct ConflictPointHash {
  size_t operator()(const ConflictPoint& cp) const {
    return static_cast<size_t>(HashCombine(
        static_cast<uint64_t>(cp.type), RelKeyHash()(cp.key)));
  }
};

/// Tests the conflict relation of §4 on a single pair of updates over the
/// same relation. Returns the conflict classification, or nullopt when
/// the updates are compatible (including when they are identical — two
/// participants independently making the same change agree, not clash).
std::optional<ConflictPoint> UpdatesConflict(
    const db::RelationSchema& schema, const Update& a, const Update& b);

/// One flattened update set bucketed by every key its updates touch, so
/// that many sets can be tested against it while it is bucketed once
/// (CheckState tests every extension against the round's own delta).
/// Holds pointers into `catalog` and `updates`; both must outlive it.
class ConflictIndex {
 public:
  ConflictIndex(const db::Catalog& catalog, const std::vector<Update>& updates);

  bool empty() const { return updates_->empty(); }

  /// Every conflict point between `a` and the indexed set, sorted and
  /// deduplicated; equal to SetsConflict(catalog, a, updates).
  std::vector<ConflictPoint> Conflicts(const std::vector<Update>& a) const;

 private:
  const db::Catalog* catalog_;
  const std::vector<Update>* updates_;
  std::unordered_map<RelKey, std::vector<size_t>, RelKeyHash> buckets_;
};

/// Finds every conflict point between two flattened update sets. Used
/// pairwise on update extensions by FindConflicts (Fig. 5). Cost
/// O(|a| + |b|) expected via key-hash bucketing.
std::vector<ConflictPoint> SetsConflict(const db::Catalog& catalog,
                                        const std::vector<Update>& a,
                                        const std::vector<Update>& b);

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_CONFLICT_H_
