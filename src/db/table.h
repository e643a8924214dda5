#ifndef ORCHESTRA_DB_TABLE_H_
#define ORCHESTRA_DB_TABLE_H_

#include <ranges>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "db/schema.h"
#include "db/tuple.h"

namespace orchestra::db {

/// One relation instance: a set of full tuples indexed by primary key.
/// Enforces key uniqueness and per-tuple schema validity; multi-relation
/// constraints (foreign keys) are checked at the Instance level.
///
/// Each row is stored once: the set hashes and compares rows on their
/// key columns, and a key tuple probes it directly. A row's hash is
/// Tuple::Hash of its projected key, so buckets and Rows() order are
/// those of a map from projected key to row fed the same operations.
class Table {
 public:
  /// The table keeps a copy of the schema so it remains self-contained.
  explicit Table(RelationSchema schema)
      : schema_(std::move(schema)),
        rows_(0, KeyHash{schema_.key_columns()},
              KeyEqual{schema_.key_columns()}) {}

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
  /// with a different existing tuple. A same-key replacement rewrites
  /// the row in place.
  Status Replace(const Tuple& old_tuple, const Tuple& new_tuple);

  /// Full tuple for `key`, or NotFound.
  Result<Tuple> GetByKey(const Tuple& key) const;

  /// The stored tuple for `key`, or nullptr: a probe that neither copies
  /// the tuple nor builds an error message on a miss. Valid until the
  /// table is next modified.
  const Tuple* Find(const Tuple& key) const {
    auto it = rows_.find(ByKey{key});
    return it == rows_.end() ? nullptr : &*it;
  }

  bool ContainsKey(const Tuple& key) const { return Find(key) != nullptr; }

  /// True if the exact full tuple is present.
  bool ContainsTuple(const Tuple& tuple) const;

  /// Every stored tuple, in unspecified order, without copying: a view
  /// over the table, valid until the table is next modified.
  auto Rows() const { return std::views::all(rows_); }

  /// All tuples in key order (deterministic; used by tests and diffing).
  std::vector<Tuple> ScanSorted() const;

  friend bool operator==(const Table& a, const Table& b) {
    return a.rows_ == b.rows_;  // per row: key lookup, then full equality
  }

 private:
  /// A key tuple probing the set: it hashes and compares as the key of
  /// the row it names.
  struct ByKey {
    const Tuple& key;
  };
  /// The functors own their copy of the key columns, so a copied or
  /// moved table never points back into its source.
  struct KeyHash {
    using is_transparent = void;
    std::vector<size_t> columns;
    size_t operator()(const Tuple& row) const {
      return static_cast<size_t>(row.HashOf(columns));
    }
    size_t operator()(ByKey probe) const {
      return static_cast<size_t>(probe.key.Hash());
    }
  };
  struct KeyEqual {
    using is_transparent = void;
    std::vector<size_t> columns;
    bool operator()(const Tuple& a, const Tuple& b) const;
    bool operator()(ByKey probe, const Tuple& row) const;
    bool operator()(const Tuple& row, ByKey probe) const {
      return (*this)(probe, row);
    }
  };

  RelationSchema schema_;
  std::unordered_set<Tuple, KeyHash, KeyEqual> rows_;
};

}  // namespace orchestra::db

#endif  // ORCHESTRA_DB_TABLE_H_
