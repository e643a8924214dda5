#ifndef ORCHESTRA_DB_TUPLE_H_
#define ORCHESTRA_DB_TUPLE_H_

#include <cstddef>
#include <string>
#include <vector>

#include "db/value.h"

namespace orchestra::db {

/// An ordered list of attribute values. Tuples are plain values: copyable,
/// hashable, and totally ordered (lexicographically), with no schema
/// attached — the schema lives in RelationSchema.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}
  Tuple(std::initializer_list<Value> values) : values_(values) {}

  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  const Value& at(size_t i) const { return values_.at(i); }
  const Value& operator[](size_t i) const { return values_[i]; }
  Value& operator[](size_t i) { return values_[i]; }

  const std::vector<Value>& values() const { return values_; }

  void Append(Value v) { values_.push_back(std::move(v)); }

  /// Returns the sub-tuple made of the given column indices (in order).
  /// Indices must be in range.
  Tuple Project(const std::vector<size_t>& indices) const;

  /// Stable 64-bit hash over all values.
  uint64_t Hash() const;

  /// Project(indices).Hash(), without building the projection. Indices
  /// must be in range.
  uint64_t HashOf(const std::vector<size_t>& indices) const;

  /// Renders as "(v1, v2, ...)".
  std::string ToString() const;

  friend bool operator==(const Tuple& a, const Tuple& b) {
    return a.values_ == b.values_;
  }
  friend bool operator!=(const Tuple& a, const Tuple& b) { return !(a == b); }
  friend bool operator<(const Tuple& a, const Tuple& b) {
    return a.values_ < b.values_;
  }

 private:
  std::vector<Value> values_;
};

/// Hash functor for unordered containers keyed by Tuple.
struct TupleHash {
  size_t operator()(const Tuple& t) const {
    return static_cast<size_t>(t.Hash());
  }
};

}  // namespace orchestra::db

#endif  // ORCHESTRA_DB_TUPLE_H_
