#ifndef ORCHESTRA_CORE_UPDATE_H_
#define ORCHESTRA_CORE_UPDATE_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "db/schema.h"
#include "db/tuple.h"
#include "core/ids.h"

namespace orchestra::core {

/// The three update operations of §3.2.
enum class UpdateKind {
  kInsert = 0,  // +R(a; i)
  kDelete = 1,  // -R(a; i)
  kModify = 2,  // R(a -> a'; i)
};

std::string_view UpdateKindName(UpdateKind kind);

/// A (relation, key) pair identifying the logical tuple an update touches.
/// Used for conflict bucketing and the dirty-value set.
struct RelKey {
  std::string relation;
  db::Tuple key;

  std::string ToString() const { return relation + key.ToString(); }

  friend bool operator==(const RelKey& a, const RelKey& b) {
    return a.relation == b.relation && a.key == b.key;
  }
  friend bool operator<(const RelKey& a, const RelKey& b) {
    if (a.relation != b.relation) return a.relation < b.relation;
    return a.key < b.key;
  }
};

struct RelKeyHash {
  size_t operator()(const RelKey& rk) const {
    return static_cast<size_t>(
        HashCombine(Fnv1a64(rk.relation), rk.key.Hash()));
  }
};

/// One value-level update, annotated with the identity of its originating
/// participant (§3.1 trust policies require origin annotations).
///
/// Representation invariants:
///  - kInsert: new_tuple set, old_tuple empty
///  - kDelete: old_tuple set, new_tuple empty
///  - kModify: both set (the key may change between them)
///
/// Updates are stored and shipped only inside a transaction: the
/// transaction codec (core/transaction.h) writes each one, relying on
/// these invariants to leave out the tuple the kind says is empty.
class Update {
 public:
  static Update Insert(std::string relation, db::Tuple tuple,
                       ParticipantId origin);
  static Update Delete(std::string relation, db::Tuple tuple,
                       ParticipantId origin);
  static Update Modify(std::string relation, db::Tuple old_tuple,
                       db::Tuple new_tuple, ParticipantId origin);

  UpdateKind kind() const { return kind_; }
  const std::string& relation() const { return relation_; }
  const db::Tuple& old_tuple() const { return old_tuple_; }
  const db::Tuple& new_tuple() const { return new_tuple_; }
  ParticipantId origin() const { return origin_; }

  bool is_insert() const { return kind_ == UpdateKind::kInsert; }
  bool is_delete() const { return kind_ == UpdateKind::kDelete; }
  bool is_modify() const { return kind_ == UpdateKind::kModify; }

  /// The key this update reads (pre-image key): delete/modify read the
  /// old tuple's key; inserts read nothing (nullopt).
  std::optional<db::Tuple> ReadKey(const db::RelationSchema& schema) const;

  /// The key this update writes (post-image key): insert/modify write the
  /// new tuple's key; deletes write nothing (they clear the read key).
  std::optional<db::Tuple> WriteKey(const db::RelationSchema& schema) const;

  /// Every (relation, key) this update touches — read or written. This is
  /// the footprint checked against the dirty-value set (§5).
  std::vector<RelKey> TouchedKeys(const db::RelationSchema& schema) const;

  /// Renders as "+F(rat, prot1, 'x'; 3)" / "-F(...)" / "F(a -> b; i)".
  std::string ToString() const;

  friend bool operator==(const Update& a, const Update& b) {
    return a.kind_ == b.kind_ && a.relation_ == b.relation_ &&
           a.old_tuple_ == b.old_tuple_ && a.new_tuple_ == b.new_tuple_ &&
           a.origin_ == b.origin_;
  }
  friend bool operator!=(const Update& a, const Update& b) {
    return !(a == b);
  }

 private:
  Update(UpdateKind kind, std::string relation, db::Tuple old_tuple,
         db::Tuple new_tuple, ParticipantId origin)
      : kind_(kind),
        relation_(std::move(relation)),
        old_tuple_(std::move(old_tuple)),
        new_tuple_(std::move(new_tuple)),
        origin_(origin) {}

  UpdateKind kind_;
  std::string relation_;
  db::Tuple old_tuple_;
  db::Tuple new_tuple_;
  ParticipantId origin_;
};

}  // namespace orchestra::core

#endif  // ORCHESTRA_CORE_UPDATE_H_
