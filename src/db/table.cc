#include "db/table.h"

#include <algorithm>

namespace orchestra::db {

Status Table::Insert(const Tuple& tuple) {
  ORCH_RETURN_IF_ERROR(schema_.ValidateTuple(tuple));
  Tuple key = schema_.KeyOf(tuple);
  auto [it, inserted] = rows_.emplace(std::move(key), tuple);
  if (!inserted) {
    return Status::AlreadyExists("key " + it->first.ToString() +
                                 " already present in " + schema_.name());
  }
  return Status::OK();
}

Status Table::DeleteByKey(const Tuple& key) {
  if (rows_.erase(key) == 0) {
    return Status::NotFound("key " + key.ToString() + " not present in " +
                            schema_.name());
  }
  return Status::OK();
}

Status Table::Replace(const Tuple& old_tuple, const Tuple& new_tuple) {
  ORCH_RETURN_IF_ERROR(schema_.ValidateTuple(new_tuple));
  const Tuple old_key = schema_.KeyOf(old_tuple);
  const Tuple new_key = schema_.KeyOf(new_tuple);
  auto it = rows_.find(old_key);
  if (it == rows_.end()) {
    return Status::NotFound("key " + old_key.ToString() + " not present in " +
                            schema_.name());
  }
  if (new_key == old_key) {
    it->second = new_tuple;
    return Status::OK();
  }
  if (rows_.find(new_key) != rows_.end()) {
    return Status::AlreadyExists("replacement key " + new_key.ToString() +
                                 " collides in " + schema_.name());
  }
  rows_.erase(it);
  rows_.emplace(new_key, new_tuple);
  return Status::OK();
}

Result<Tuple> Table::GetByKey(const Tuple& key) const {
  auto it = rows_.find(key);
  if (it == rows_.end()) {
    return Status::NotFound("key " + key.ToString() + " not present in " +
                            schema_.name());
  }
  return it->second;
}

bool Table::ContainsTuple(const Tuple& tuple) const {
  auto it = rows_.find(schema_.KeyOf(tuple));
  return it != rows_.end() && it->second == tuple;
}

std::vector<Tuple> Table::ScanSorted() const {
  std::vector<Tuple> out;
  out.reserve(rows_.size());
  for (const Tuple& tuple : Rows()) out.push_back(tuple);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace orchestra::db
