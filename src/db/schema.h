#ifndef ORCHESTRA_DB_SCHEMA_H_
#define ORCHESTRA_DB_SCHEMA_H_

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/tuple.h"
#include "db/value.h"

namespace orchestra::db {

/// One column in a relation schema.
struct Column {
  std::string name;
  ValueType type = ValueType::kString;
  bool nullable = false;
};

/// Referential integrity constraint: each child tuple's `child_columns`
/// projection must appear as the primary key of some tuple in
/// `parent_relation` (or be all-NULL if the columns are nullable).
struct ForeignKey {
  std::string child_relation;
  std::vector<size_t> child_columns;
  std::string parent_relation;
};

/// Schema of one relation: name, typed columns, and the primary-key
/// column indices. Immutable after construction (use Make).
class RelationSchema {
 public:
  /// Validates and builds a schema. Fails if the name or columns are
  /// empty, column names repeat, key indices are out of range or
  /// repeated, or a key column is nullable.
  static Result<RelationSchema> Make(std::string name,
                                     std::vector<Column> columns,
                                     std::vector<size_t> key_columns);

  const std::string& name() const { return name_; }
  const std::vector<Column>& columns() const { return columns_; }
  const std::vector<size_t>& key_columns() const { return key_columns_; }
  size_t arity() const { return columns_.size(); }

  /// Index of the column named `name`, if present.
  std::optional<size_t> ColumnIndex(std::string_view column_name) const;

  /// Projects the primary-key attributes out of a full tuple.
  Tuple KeyOf(const Tuple& tuple) const { return tuple.Project(key_columns_); }

  /// True if `column` participates in the primary key.
  bool IsKeyColumn(size_t column) const;

  /// Checks arity, types, and NOT NULL constraints of a full tuple.
  Status ValidateTuple(const Tuple& tuple) const;

  std::string ToString() const;

 private:
  RelationSchema() = default;

  std::string name_;
  std::vector<Column> columns_;
  std::vector<size_t> key_columns_;
};

/// The database schema Σ: a set of relation schemas plus foreign keys.
/// Shared (read-only after setup) by every participant in a CDSS.
class Catalog {
 public:
  /// Registers a relation; fails on duplicate names.
  Status AddRelation(RelationSchema schema);

  /// Registers a foreign key; both relations must already exist, and the
  /// child column list must match the parent key's arity.
  Status AddForeignKey(ForeignKey fk);

  /// Looks up a relation schema by name.
  Result<const RelationSchema*> GetRelation(std::string_view name) const;

  bool HasRelation(std::string_view name) const;

  const std::map<std::string, RelationSchema, std::less<>>& relations() const {
    return relations_;
  }
  const std::vector<ForeignKey>& foreign_keys() const { return foreign_keys_; }

  /// Foreign keys whose child is `relation`, in declaration order.
  const std::vector<ForeignKey>& ForeignKeysOf(
      std::string_view relation) const;

  /// Foreign keys whose parent is `relation`, in declaration order.
  const std::vector<ForeignKey>& ForeignKeysReferencing(
      std::string_view relation) const;

 private:
  using ForeignKeyLists =
      std::map<std::string, std::vector<ForeignKey>, std::less<>>;
  static const std::vector<ForeignKey>& ListOf(const ForeignKeyLists& lists,
                                               std::string_view relation);

  std::map<std::string, RelationSchema, std::less<>> relations_;
  std::vector<ForeignKey> foreign_keys_;
  /// Per-relation copies of foreign_keys_, filled by AddForeignKey; held
  /// by value so that a copied catalog points into nothing of its source.
  ForeignKeyLists by_child_;
  ForeignKeyLists by_parent_;
};

}  // namespace orchestra::db

#endif  // ORCHESTRA_DB_SCHEMA_H_
