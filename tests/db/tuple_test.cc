#include "db/tuple.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace orchestra::db {
namespace {

Tuple Make(std::initializer_list<const char*> values) {
  std::vector<Value> out;
  for (const char* v : values) out.emplace_back(v);
  return Tuple(std::move(out));
}

TEST(TupleTest, BasicAccess) {
  Tuple t = Make({"a", "b", "c"});
  EXPECT_EQ(t.size(), 3u);
  EXPECT_FALSE(t.empty());
  EXPECT_EQ(t[0], Value("a"));
  EXPECT_EQ(t.at(2), Value("c"));
  EXPECT_TRUE(Tuple().empty());
}

TEST(TupleTest, InitializerListConstruction) {
  Tuple t{Value("x"), Value(int64_t{7})};
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[1].AsInt64(), 7);
}

TEST(TupleTest, AppendGrows) {
  Tuple t;
  t.Append(Value("one"));
  t.Append(Value(int64_t{2}));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].AsString(), "one");
}

TEST(TupleTest, ProjectSelectsColumnsInOrder) {
  Tuple t = Make({"a", "b", "c", "d"});
  EXPECT_EQ(t.Project({2, 0}), Make({"c", "a"}));
  EXPECT_EQ(t.Project({}), Tuple());
  EXPECT_EQ(t.Project({1, 1}), Make({"b", "b"}));
}

TEST(TupleTest, EqualityAndOrdering) {
  EXPECT_EQ(Make({"a", "b"}), Make({"a", "b"}));
  EXPECT_NE(Make({"a", "b"}), Make({"a", "c"}));
  EXPECT_NE(Make({"a"}), Make({"a", "a"}));
  EXPECT_LT(Make({"a", "b"}), Make({"a", "c"}));
  EXPECT_LT(Make({"a"}), Make({"a", "a"}));  // prefix sorts first
}

TEST(TupleTest, HashConsistentWithEquality) {
  EXPECT_EQ(Make({"x", "y"}).Hash(), Make({"x", "y"}).Hash());
  EXPECT_NE(Make({"x", "y"}).Hash(), Make({"y", "x"}).Hash());
  EXPECT_NE(Make({"x"}).Hash(), Tuple().Hash());
}

TEST(TupleTest, HashOfMatchesTheProjectionsHash) {
  const Tuple t = Make({"rat", "p1", "immune"});
  for (const std::vector<size_t>& columns :
       {std::vector<size_t>{}, {0}, {0, 1}, {2, 0}, {0, 1, 2}}) {
    EXPECT_EQ(t.HashOf(columns), t.Project(columns).Hash());
  }
}

TEST(TupleTest, WorksInUnorderedContainers) {
  std::unordered_set<Tuple, TupleHash> set;
  set.insert(Make({"a", "1"}));
  set.insert(Make({"a", "1"}));
  set.insert(Make({"b", "2"}));
  EXPECT_EQ(set.size(), 2u);
  EXPECT_TRUE(set.count(Make({"a", "1"})) > 0);
  EXPECT_EQ(set.count(Make({"c", "3"})), 0u);
}

TEST(TupleTest, ToStringRendering) {
  EXPECT_EQ(Make({"rat", "p1"}).ToString(), "('rat', 'p1')");
  EXPECT_EQ(Tuple().ToString(), "()");
  EXPECT_EQ(Tuple{Value(int64_t{3})}.ToString(), "(3)");
}

}  // namespace
}  // namespace orchestra::db
