#include "db/table.h"

#include <gtest/gtest.h>

namespace orchestra::db {
namespace {

RelationSchema MakeF() {
  auto schema = RelationSchema::Make(
      "F",
      {{"organism", ValueType::kString, false},
       {"protein", ValueType::kString, false},
       {"function", ValueType::kString, false}},
      {0, 1});
  ORCH_CHECK(schema.ok());
  return *std::move(schema);
}

Tuple Row(const char* a, const char* b, const char* c) {
  return Tuple{Value(a), Value(b), Value(c)};
}
Tuple Key(const char* a, const char* b) {
  return Tuple{Value(a), Value(b)};
}

TEST(TableTest, InsertAndGet) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "immune")).ok());
  EXPECT_EQ(table.size(), 1u);
  auto got = table.GetByKey(Key("rat", "p1"));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, Row("rat", "p1", "immune"));
}

TEST(TableTest, FindProbesWithoutCopying) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "immune")).ok());
  const Tuple* hit = table.Find(Key("rat", "p1"));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, Row("rat", "p1", "immune"));
  EXPECT_EQ(table.Find(Key("rat", "p2")), nullptr);
}

TEST(TableTest, InsertRejectsDuplicateKey) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "immune")).ok());
  EXPECT_EQ(table.Insert(Row("rat", "p1", "metab")).code(),
            StatusCode::kAlreadyExists);
  // Even an identical tuple: key uniqueness is absolute at this layer.
  EXPECT_EQ(table.Insert(Row("rat", "p1", "immune")).code(),
            StatusCode::kAlreadyExists);
}

TEST(TableTest, InsertValidatesSchema) {
  Table table(MakeF());
  EXPECT_FALSE(table.Insert(Tuple{Value("rat")}).ok());
  EXPECT_FALSE(
      table.Insert(Tuple{Value(int64_t{1}), Value("p"), Value("f")}).ok());
}

TEST(TableTest, DeleteByKey) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "immune")).ok());
  EXPECT_TRUE(table.DeleteByKey(Key("rat", "p1")).ok());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.DeleteByKey(Key("rat", "p1")).IsNotFound());
}

TEST(TableTest, ReplaceSameKey) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "immune")).ok());
  ASSERT_TRUE(
      table.Replace(Row("rat", "p1", "immune"), Row("rat", "p1", "metab"))
          .ok());
  EXPECT_EQ(*table.GetByKey(Key("rat", "p1")), Row("rat", "p1", "metab"));
  EXPECT_EQ(table.size(), 1u);
}

TEST(TableTest, ReplaceMovesKey) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "immune")).ok());
  ASSERT_TRUE(
      table.Replace(Row("rat", "p1", "immune"), Row("rat", "p2", "immune"))
          .ok());
  EXPECT_FALSE(table.ContainsKey(Key("rat", "p1")));
  EXPECT_TRUE(table.ContainsKey(Key("rat", "p2")));
}

TEST(TableTest, ReplaceFailsOnMissingSource) {
  Table table(MakeF());
  EXPECT_TRUE(table.Replace(Row("rat", "p1", "x"), Row("rat", "p1", "y"))
                  .IsNotFound());
}

TEST(TableTest, ReplaceFailsOnTargetCollision) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "a")).ok());
  ASSERT_TRUE(table.Insert(Row("rat", "p2", "b")).ok());
  EXPECT_EQ(
      table.Replace(Row("rat", "p1", "a"), Row("rat", "p2", "a")).code(),
      StatusCode::kAlreadyExists);
}

TEST(TableTest, ContainsTupleChecksFullValue) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "immune")).ok());
  EXPECT_TRUE(table.ContainsTuple(Row("rat", "p1", "immune")));
  EXPECT_FALSE(table.ContainsTuple(Row("rat", "p1", "metab")));
  EXPECT_TRUE(table.ContainsKey(Key("rat", "p1")));
}

TEST(TableTest, ScanSortedIsDeterministic) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p2", "b")).ok());
  ASSERT_TRUE(table.Insert(Row("mouse", "p1", "a")).ok());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "c")).ok());
  const std::vector<Tuple> sorted = table.ScanSorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0], Row("mouse", "p1", "a"));
  EXPECT_EQ(sorted[1], Row("rat", "p1", "c"));
  EXPECT_EQ(sorted[2], Row("rat", "p2", "b"));
}

TEST(TableTest, EqualityComparesContents) {
  Table a(MakeF());
  Table b(MakeF());
  EXPECT_TRUE(a == b);
  ASSERT_TRUE(a.Insert(Row("rat", "p1", "x")).ok());
  EXPECT_FALSE(a == b);
  ASSERT_TRUE(b.Insert(Row("rat", "p1", "x")).ok());
  EXPECT_TRUE(a == b);
}

}  // namespace
}  // namespace orchestra::db
