#include "core/conflict.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

namespace orchestra::core {

std::string_view ConflictTypeName(ConflictType type) {
  switch (type) {
    case ConflictType::kInsertInsert:
      return "insert/insert";
    case ConflictType::kDeleteVsWrite:
      return "delete/write";
    case ConflictType::kReplaceReplace:
      return "replace/replace";
    case ConflictType::kKeyCollision:
      return "key-collision";
  }
  return "unknown";
}

std::string ConflictPoint::ToString() const {
  return std::string(ConflictTypeName(type)) + " on " + key.ToString();
}

namespace {

// delete `d` vs insert-or-modify `w`.
std::optional<ConflictPoint> DeleteVsWrite(const db::RelationSchema& schema,
                                           const Update& d, const Update& w) {
  const db::Tuple dk = schema.KeyOf(d.old_tuple());
  if (w.is_insert()) {
    if (schema.KeyOf(w.new_tuple()) == dk) {
      return ConflictPoint{ConflictType::kDeleteVsWrite,
                           RelKey{d.relation(), dk}};
    }
    return std::nullopt;
  }
  // Replacement: conflicts if it reads or writes the deleted key.
  if (schema.KeyOf(w.old_tuple()) == dk || schema.KeyOf(w.new_tuple()) == dk) {
    return ConflictPoint{ConflictType::kDeleteVsWrite,
                         RelKey{d.relation(), dk}};
  }
  return std::nullopt;
}

std::optional<ConflictPoint> InsertVsInsert(const db::RelationSchema& schema,
                                            const Update& a, const Update& b) {
  const db::Tuple ka = schema.KeyOf(a.new_tuple());
  if (ka != schema.KeyOf(b.new_tuple())) return std::nullopt;
  if (a.new_tuple() == b.new_tuple()) return std::nullopt;  // they agree
  return ConflictPoint{ConflictType::kInsertInsert, RelKey{a.relation(), ka}};
}

std::optional<ConflictPoint> ModifyVsModify(const db::RelationSchema& schema,
                                            const Update& a, const Update& b) {
  const db::Tuple src_a = schema.KeyOf(a.old_tuple());
  const db::Tuple src_b = schema.KeyOf(b.old_tuple());
  if (src_a == src_b) {
    // Same source key. Identical replacements agree; anything else is the
    // paper's replace/replace conflict (including disagreement about the
    // source tuple's current value).
    if (a.old_tuple() == b.old_tuple() && a.new_tuple() == b.new_tuple()) {
      return std::nullopt;
    }
    return ConflictPoint{ConflictType::kReplaceReplace,
                         RelKey{a.relation(), src_a}};
  }
  // Different sources converging on one target key can never both apply.
  const db::Tuple dst_a = schema.KeyOf(a.new_tuple());
  if (dst_a == schema.KeyOf(b.new_tuple())) {
    return ConflictPoint{ConflictType::kKeyCollision,
                         RelKey{a.relation(), dst_a}};
  }
  return std::nullopt;
}

std::optional<ConflictPoint> InsertVsModify(const db::RelationSchema& schema,
                                            const Update& ins,
                                            const Update& mod) {
  // An insert and a replacement targeting the same key both claim it;
  // even value-identical outcomes cannot both apply (duplicate key).
  const db::Tuple ki = schema.KeyOf(ins.new_tuple());
  if (ki == schema.KeyOf(mod.new_tuple())) {
    return ConflictPoint{ConflictType::kKeyCollision,
                         RelKey{ins.relation(), ki}};
  }
  return std::nullopt;
}

}  // namespace

std::optional<ConflictPoint> UpdatesConflict(const db::RelationSchema& schema,
                                             const Update& a,
                                             const Update& b) {
  if (a.relation() != b.relation()) return std::nullopt;
  if (a.is_delete() && b.is_delete()) return std::nullopt;  // they agree
  if (a.is_delete()) return DeleteVsWrite(schema, a, b);
  if (b.is_delete()) return DeleteVsWrite(schema, b, a);
  if (a.is_insert() && b.is_insert()) return InsertVsInsert(schema, a, b);
  if (a.is_modify() && b.is_modify()) return ModifyVsModify(schema, a, b);
  if (a.is_insert()) return InsertVsModify(schema, a, b);
  return InsertVsModify(schema, b, a);
}

ConflictIndex::ConflictIndex(const db::Catalog& catalog,
                             const std::vector<Update>& updates)
    : catalog_(&catalog), updates_(&updates) {
  // Conflicting pairs always share a touched key.
  for (size_t i = 0; i < updates.size(); ++i) {
    const db::RelationSchema& schema =
        *catalog.GetRelation(updates[i].relation()).value();
    for (RelKey& rk : updates[i].TouchedKeys(schema)) {
      buckets_[std::move(rk)].push_back(i);
    }
  }
}

std::vector<ConflictPoint> ConflictIndex::Conflicts(
    const std::vector<Update>& a) const {
  std::vector<ConflictPoint> out;
  if (a.empty() || buckets_.empty()) return out;
  const std::vector<Update>& b = *updates_;
  std::unordered_set<ConflictPoint, ConflictPointHash> seen;
  std::unordered_set<uint64_t> tested;  // (i_a << 32 | i_b) pairs
  for (size_t ia = 0; ia < a.size(); ++ia) {
    const db::RelationSchema& schema =
        *catalog_->GetRelation(a[ia].relation()).value();
    for (const RelKey& rk : a[ia].TouchedKeys(schema)) {
      auto it = buckets_.find(rk);
      if (it == buckets_.end()) continue;
      for (size_t ib : it->second) {
        if (!tested.insert((static_cast<uint64_t>(ia) << 32) | ib).second) {
          continue;
        }
        if (auto cp = UpdatesConflict(schema, a[ia], b[ib])) {
          if (seen.insert(*cp).second) out.push_back(*cp);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ConflictPoint> SetsConflict(const db::Catalog& catalog,
                                        const std::vector<Update>& a,
                                        const std::vector<Update>& b) {
  if (a.empty() || b.empty()) return {};
  return ConflictIndex(catalog, b).Conflicts(a);
}

}  // namespace orchestra::core
