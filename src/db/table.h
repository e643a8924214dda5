#ifndef ORCHESTRA_DB_TABLE_H_
#define ORCHESTRA_DB_TABLE_H_

#include <ranges>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/schema.h"
#include "db/tuple.h"

namespace orchestra::db {

/// One relation instance: a set of full tuples indexed by primary key.
/// Enforces key uniqueness and per-tuple schema validity; multi-relation
/// constraints (foreign keys) are checked at the Instance level.
class Table {
 public:
  /// The table keeps a copy of the schema so it remains self-contained.
  explicit Table(RelationSchema schema) : schema_(std::move(schema)) {}

  const RelationSchema& schema() const { return schema_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }

  /// Inserts a full tuple. Fails with AlreadyExists if a tuple with the
  /// same key is present (even an identical one — idempotence is handled
  /// one level up, by the reconciler's compatibility checks).
  Status Insert(const Tuple& tuple);

  /// Deletes the tuple whose key matches `key`; NotFound if absent.
  Status DeleteByKey(const Tuple& key);

  /// Replaces the tuple matching old_tuple's key with new_tuple. The key
  /// may change; fails if the old key is absent or the new key collides
  /// with a different existing tuple.
  Status Replace(const Tuple& old_tuple, const Tuple& new_tuple);

  /// Full tuple for `key`, or NotFound.
  Result<Tuple> GetByKey(const Tuple& key) const;

  /// The stored tuple for `key`, or nullptr: a probe that neither copies
  /// the tuple nor builds an error message on a miss. Valid until the
  /// table is next modified.
  const Tuple* Find(const Tuple& key) const {
    auto it = rows_.find(key);
    return it == rows_.end() ? nullptr : &it->second;
  }

  bool ContainsKey(const Tuple& key) const {
    return rows_.find(key) != rows_.end();
  }

  /// True if the exact full tuple is present.
  bool ContainsTuple(const Tuple& tuple) const;

  /// Every stored tuple, in unspecified order, without copying: a view
  /// over the table, valid until the table is next modified.
  auto Rows() const { return std::views::values(rows_); }

  /// All tuples in key order (deterministic; used by tests and diffing).
  std::vector<Tuple> ScanSorted() const;

  friend bool operator==(const Table& a, const Table& b) {
    return a.rows_ == b.rows_;
  }

 private:
  RelationSchema schema_;
  std::unordered_map<Tuple, Tuple, TupleHash> rows_;  // key -> full tuple
};

}  // namespace orchestra::db

#endif  // ORCHESTRA_DB_TABLE_H_
