#include "db/instance.h"

#include "common/check.h"

namespace orchestra::db {

Instance::Instance(const Catalog* catalog) : catalog_(catalog) {
  ORCH_CHECK(catalog != nullptr);
  for (const auto& [name, schema] : catalog->relations()) {
    tables_.emplace(name, Table(schema));
  }
}

Result<Table*> Instance::GetTable(std::string_view relation) {
  auto it = tables_.find(relation);
  if (it == tables_.end()) {
    return Status::NotFound("relation " + std::string(relation) +
                            " not in instance");
  }
  return &it->second;
}

Result<const Table*> Instance::GetTable(std::string_view relation) const {
  auto it = tables_.find(relation);
  if (it == tables_.end()) {
    return Status::NotFound("relation " + std::string(relation) +
                            " not in instance");
  }
  return &it->second;
}

size_t Instance::TotalTuples() const {
  size_t n = 0;
  for (const auto& [name, table] : tables_) n += table.size();
  return n;
}

Status Instance::CheckForeignKeys() const {
  for (const ForeignKey& fk : catalog_->foreign_keys()) {
    auto child_it = tables_.find(fk.child_relation);
    auto parent_it = tables_.find(fk.parent_relation);
    ORCH_CHECK(child_it != tables_.end() && parent_it != tables_.end());
    for (const Tuple& child : child_it->second.Rows()) {
      Tuple ref = child.Project(fk.child_columns);
      bool all_null = true;
      for (const Value& v : ref.values()) {
        if (!v.is_null()) all_null = false;
      }
      if (all_null) continue;  // NULL references are vacuously satisfied
      if (!parent_it->second.ContainsKey(ref)) {
        return Status::ConstraintViolation(
            "tuple " + child.ToString() + " in " + fk.child_relation +
            " references missing key " + ref.ToString() + " of " +
            fk.parent_relation);
      }
    }
  }
  return Status::OK();
}

bool operator==(const Instance& a, const Instance& b) {
  return a.tables_ == b.tables_;
}

std::string Instance::ToString() const {
  std::string out;
  for (const auto& [name, table] : tables_) {
    out += name + ":\n";
    for (const Tuple& t : table.ScanSorted()) {
      out += "  " + t.ToString() + "\n";
    }
  }
  return out;
}

}  // namespace orchestra::db
