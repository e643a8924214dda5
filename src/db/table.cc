#include "db/table.h"

#include <algorithm>

namespace orchestra::db {

bool Table::KeyEqual::operator()(const Tuple& a, const Tuple& b) const {
  for (size_t c : columns) {
    if (a[c] != b[c]) return false;
  }
  return true;
}

bool Table::KeyEqual::operator()(ByKey probe, const Tuple& row) const {
  if (probe.key.size() != columns.size()) return false;
  for (size_t i = 0; i < columns.size(); ++i) {
    if (probe.key[i] != row[columns[i]]) return false;
  }
  return true;
}

Status Table::Insert(const Tuple& tuple) {
  ORCH_RETURN_IF_ERROR(schema_.ValidateTuple(tuple));
  if (!rows_.insert(tuple).second) {
    return Status::AlreadyExists("key " + schema_.KeyOf(tuple).ToString() +
                                 " already present in " + schema_.name());
  }
  return Status::OK();
}

Status Table::DeleteByKey(const Tuple& key) {
  auto it = rows_.find(ByKey{key});
  if (it == rows_.end()) {
    return Status::NotFound("key " + key.ToString() + " not present in " +
                            schema_.name());
  }
  rows_.erase(it);
  return Status::OK();
}

Status Table::Replace(const Tuple& old_tuple, const Tuple& new_tuple) {
  ORCH_RETURN_IF_ERROR(schema_.ValidateTuple(new_tuple));
  auto it = rows_.find(old_tuple);
  if (it == rows_.end()) {
    return Status::NotFound("key " + schema_.KeyOf(old_tuple).ToString() +
                            " not present in " + schema_.name());
  }
  if (rows_.key_eq()(old_tuple, new_tuple)) {
    // The key columns, and with them the hash and the bucket, stay; the
    // node is not const storage, so the row is rewritten where it lies.
    const_cast<Tuple&>(*it) = new_tuple;
    return Status::OK();
  }
  if (rows_.find(new_tuple) != rows_.end()) {
    return Status::AlreadyExists("replacement key " +
                                 schema_.KeyOf(new_tuple).ToString() +
                                 " collides in " + schema_.name());
  }
  rows_.erase(it);
  rows_.insert(new_tuple);
  return Status::OK();
}

Result<Tuple> Table::GetByKey(const Tuple& key) const {
  const Tuple* row = Find(key);
  if (row == nullptr) {
    return Status::NotFound("key " + key.ToString() + " not present in " +
                            schema_.name());
  }
  return *row;
}

bool Table::ContainsTuple(const Tuple& tuple) const {
  auto it = rows_.find(tuple);
  return it != rows_.end() && *it == tuple;
}

std::vector<Tuple> Table::ScanSorted() const {
  std::vector<Tuple> out(rows_.begin(), rows_.end());
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace orchestra::db
