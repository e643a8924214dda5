#include "core/update.h"

#include "common/check.h"

namespace orchestra::core {

std::string_view UpdateKindName(UpdateKind kind) {
  switch (kind) {
    case UpdateKind::kInsert:
      return "insert";
    case UpdateKind::kDelete:
      return "delete";
    case UpdateKind::kModify:
      return "modify";
  }
  return "unknown";
}

Update Update::Insert(std::string relation, db::Tuple tuple,
                      ParticipantId origin) {
  return Update(UpdateKind::kInsert, std::move(relation), db::Tuple(),
                std::move(tuple), origin);
}

Update Update::Delete(std::string relation, db::Tuple tuple,
                      ParticipantId origin) {
  return Update(UpdateKind::kDelete, std::move(relation), std::move(tuple),
                db::Tuple(), origin);
}

Update Update::Modify(std::string relation, db::Tuple old_tuple,
                      db::Tuple new_tuple, ParticipantId origin) {
  return Update(UpdateKind::kModify, std::move(relation),
                std::move(old_tuple), std::move(new_tuple), origin);
}

std::optional<db::Tuple> Update::ReadKey(
    const db::RelationSchema& schema) const {
  if (is_insert()) return std::nullopt;
  return schema.KeyOf(old_tuple_);
}

std::optional<db::Tuple> Update::WriteKey(
    const db::RelationSchema& schema) const {
  if (is_delete()) return std::nullopt;
  return schema.KeyOf(new_tuple_);
}

std::vector<RelKey> Update::TouchedKeys(
    const db::RelationSchema& schema) const {
  std::vector<RelKey> out;
  if (auto read = ReadKey(schema)) {
    out.push_back(RelKey{relation_, std::move(*read)});
  }
  if (auto write = WriteKey(schema)) {
    RelKey rk{relation_, std::move(*write)};
    if (out.empty() || !(out.front() == rk)) out.push_back(std::move(rk));
  }
  return out;
}

std::string Update::ToString() const {
  switch (kind_) {
    case UpdateKind::kInsert:
      return "+" + relation_ + new_tuple_.ToString() + ";" +
             std::to_string(origin_);
    case UpdateKind::kDelete:
      return "-" + relation_ + old_tuple_.ToString() + ";" +
             std::to_string(origin_);
    case UpdateKind::kModify:
      return relation_ + "(" + old_tuple_.ToString() + " -> " +
             new_tuple_.ToString() + ");" + std::to_string(origin_);
  }
  return "?";
}

}  // namespace orchestra::core
