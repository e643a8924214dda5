#include "db/tuple.h"

#include "common/check.h"
#include "common/string_util.h"

namespace orchestra::db {

Tuple Tuple::Project(const std::vector<size_t>& indices) const {
  std::vector<Value> out;
  out.reserve(indices.size());
  for (size_t i : indices) {
    ORCH_CHECK_LT(i, values_.size(), "projection index out of range");
    out.push_back(values_[i]);
  }
  return Tuple(std::move(out));
}

namespace {
constexpr uint64_t kHashSeed = 0xcbf29ce484222325ULL;
}  // namespace

uint64_t Tuple::Hash() const {
  uint64_t h = kHashSeed;
  for (const Value& v : values_) h = HashCombine(h, v.Hash());
  return h;
}

uint64_t Tuple::HashOf(const std::vector<size_t>& indices) const {
  uint64_t h = kHashSeed;
  for (size_t i : indices) {
    ORCH_CHECK_LT(i, values_.size(), "projection index out of range");
    h = HashCombine(h, values_[i].Hash());
  }
  return h;
}

std::string Tuple::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(values_.size());
  for (const Value& v : values_) parts.push_back(v.ToString());
  return "(" + Join(parts, ", ") + ")";
}

}  // namespace orchestra::db
