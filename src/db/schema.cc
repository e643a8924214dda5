#include "db/schema.h"

#include <unordered_set>

#include "common/string_util.h"

namespace orchestra::db {

Result<RelationSchema> RelationSchema::Make(std::string name,
                                            std::vector<Column> columns,
                                            std::vector<size_t> key_columns) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  if (columns.empty()) {
    return Status::InvalidArgument("relation " + name + " has no columns");
  }
  std::unordered_set<std::string> seen_names;
  for (const Column& c : columns) {
    if (c.name.empty()) {
      return Status::InvalidArgument("relation " + name +
                                     " has an unnamed column");
    }
    if (!seen_names.insert(c.name).second) {
      return Status::InvalidArgument("relation " + name +
                                     " repeats column name " + c.name);
    }
    if (c.type == ValueType::kNull) {
      return Status::InvalidArgument("column " + c.name +
                                     " cannot have type null");
    }
  }
  if (key_columns.empty()) {
    return Status::InvalidArgument("relation " + name +
                                   " must declare a primary key");
  }
  std::unordered_set<size_t> seen_keys;
  for (size_t k : key_columns) {
    if (k >= columns.size()) {
      return Status::InvalidArgument("key column index " + std::to_string(k) +
                                     " out of range in relation " + name);
    }
    if (!seen_keys.insert(k).second) {
      return Status::InvalidArgument("key column index " + std::to_string(k) +
                                     " repeated in relation " + name);
    }
    if (columns[k].nullable) {
      return Status::InvalidArgument("key column " + columns[k].name +
                                     " must not be nullable");
    }
  }
  RelationSchema schema;
  schema.name_ = std::move(name);
  schema.columns_ = std::move(columns);
  schema.key_columns_ = std::move(key_columns);
  return schema;
}

std::optional<size_t> RelationSchema::ColumnIndex(
    std::string_view column_name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == column_name) return i;
  }
  return std::nullopt;
}

bool RelationSchema::IsKeyColumn(size_t column) const {
  for (size_t k : key_columns_) {
    if (k == column) return true;
  }
  return false;
}

Status RelationSchema::ValidateTuple(const Tuple& tuple) const {
  if (tuple.size() != columns_.size()) {
    return Status::InvalidArgument(
        "tuple arity " + std::to_string(tuple.size()) + " does not match " +
        name_ + " arity " + std::to_string(columns_.size()));
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    const Value& v = tuple[i];
    if (v.is_null()) {
      if (!columns_[i].nullable) {
        return Status::ConstraintViolation("column " + columns_[i].name +
                                           " of " + name_ + " is NOT NULL");
      }
      continue;
    }
    if (v.type() != columns_[i].type) {
      return Status::InvalidArgument(
          "column " + columns_[i].name + " of " + name_ + " expects " +
          std::string(ValueTypeName(columns_[i].type)) + ", got " +
          std::string(ValueTypeName(v.type())));
    }
  }
  return Status::OK();
}

std::string RelationSchema::ToString() const {
  std::vector<std::string> cols;
  cols.reserve(columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    std::string c = columns_[i].name + " " +
                    std::string(ValueTypeName(columns_[i].type));
    if (IsKeyColumn(i)) c += " KEY";
    if (columns_[i].nullable) c += " NULL";
    cols.push_back(std::move(c));
  }
  return name_ + "(" + Join(cols, ", ") + ")";
}

Status Catalog::AddRelation(RelationSchema schema) {
  const std::string name = schema.name();
  if (!relations_.emplace(name, std::move(schema)).second) {
    return Status::AlreadyExists("relation " + name + " already declared");
  }
  return Status::OK();
}

Status Catalog::AddForeignKey(ForeignKey fk) {
  auto child = GetRelation(fk.child_relation);
  if (!child.ok()) return child.status();
  auto parent = GetRelation(fk.parent_relation);
  if (!parent.ok()) return parent.status();
  if (fk.child_columns.size() != (*parent)->key_columns().size()) {
    return Status::InvalidArgument(
        "foreign key from " + fk.child_relation + " to " + fk.parent_relation +
        " has arity " + std::to_string(fk.child_columns.size()) +
        " but the parent key has arity " +
        std::to_string((*parent)->key_columns().size()));
  }
  for (size_t c : fk.child_columns) {
    if (c >= (*child)->arity()) {
      return Status::InvalidArgument("foreign key column index " +
                                     std::to_string(c) + " out of range in " +
                                     fk.child_relation);
    }
  }
  by_child_[fk.child_relation].push_back(fk);
  by_parent_[fk.parent_relation].push_back(fk);
  foreign_keys_.push_back(std::move(fk));
  return Status::OK();
}

Result<const RelationSchema*> Catalog::GetRelation(
    std::string_view name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("relation " + std::string(name) +
                            " is not declared in the catalog");
  }
  return &it->second;
}

bool Catalog::HasRelation(std::string_view name) const {
  return relations_.find(name) != relations_.end();
}

const std::vector<ForeignKey>& Catalog::ListOf(const ForeignKeyLists& lists,
                                               std::string_view relation) {
  static const std::vector<ForeignKey> kNone;
  auto it = lists.find(relation);
  return it == lists.end() ? kNone : it->second;
}

const std::vector<ForeignKey>& Catalog::ForeignKeysOf(
    std::string_view relation) const {
  return ListOf(by_child_, relation);
}

const std::vector<ForeignKey>& Catalog::ForeignKeysReferencing(
    std::string_view relation) const {
  return ListOf(by_parent_, relation);
}

}  // namespace orchestra::db
