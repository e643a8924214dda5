#include "db/table.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/random.h"
#include "db/instance.h"

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

TEST(TableTest, KeyAndRowLookupsSeeOneStoredRow) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "immune")).ok());
  ASSERT_TRUE(table.Insert(Row("rat", "p2", "metab")).ok());
  const Tuple* by_key = table.Find(Key("rat", "p2"));
  ASSERT_NE(by_key, nullptr);
  EXPECT_EQ(*by_key, Row("rat", "p2", "metab"));
  // The probe by key and the view of every row reach the same storage.
  bool seen = false;
  for (const Tuple& row : table.Rows()) seen |= &row == by_key;
  EXPECT_TRUE(seen);
  EXPECT_EQ(*table.GetByKey(Key("rat", "p1")), Row("rat", "p1", "immune"));
  EXPECT_TRUE(table.ContainsTuple(Row("rat", "p2", "metab")));
  EXPECT_FALSE(table.ContainsTuple(Row("rat", "p3", "metab")));
  // A probe of another arity names no row.
  EXPECT_FALSE(table.ContainsKey(Tuple{Value("rat")}));
  EXPECT_FALSE(table.ContainsKey(Row("rat", "p1", "immune")));
}

TEST(TableTest, SameKeyReplaceRewritesTheRowInPlace) {
  Table table(MakeF());
  for (const char* protein : {"p1", "p2", "p3", "p4", "p5"}) {
    ASSERT_TRUE(table.Insert(Row("rat", protein, "x")).ok());
  }
  const Tuple* before = table.Find(Key("rat", "p3"));
  std::vector<Tuple> order(table.Rows().begin(), table.Rows().end());
  ASSERT_TRUE(
      table.Replace(Row("rat", "p3", "x"), Row("rat", "p3", "y")).ok());
  EXPECT_EQ(table.Find(Key("rat", "p3")), before);
  for (Tuple& row : order) {
    if (row == Row("rat", "p3", "x")) row = Row("rat", "p3", "y");
  }
  EXPECT_EQ(std::vector<Tuple>(table.Rows().begin(), table.Rows().end()),
            order);
}

TEST(TableTest, KeyMovingReplaceLeavesOneRow) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "a")).ok());
  ASSERT_TRUE(table.Insert(Row("rat", "p3", "c")).ok());
  ASSERT_TRUE(
      table.Replace(Row("rat", "p1", "a"), Row("rat", "p2", "b")).ok());
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.Find(Key("rat", "p1")), nullptr);
  EXPECT_EQ(*table.Find(Key("rat", "p2")), Row("rat", "p2", "b"));
  // The old pre-image names nothing now; the moved row can move back.
  EXPECT_TRUE(table.Replace(Row("rat", "p1", "a"), Row("rat", "p1", "a"))
                  .IsNotFound());
  ASSERT_TRUE(
      table.Replace(Row("rat", "p2", "b"), Row("rat", "p1", "a")).ok());
  EXPECT_EQ(table.ScanSorted(),
            (std::vector<Tuple>{Row("rat", "p1", "a"), Row("rat", "p3", "c")}));
}

TEST(TableTest, ErrorMessagesNameTheKey) {
  Table table(MakeF());
  ASSERT_TRUE(table.Insert(Row("rat", "p1", "a")).ok());
  ASSERT_TRUE(table.Insert(Row("rat", "p2", "b")).ok());
  EXPECT_EQ(table.Insert(Row("rat", "p1", "z")).message(),
            "key ('rat', 'p1') already present in F");
  EXPECT_EQ(table.DeleteByKey(Key("rat", "p9")).message(),
            "key ('rat', 'p9') not present in F");
  EXPECT_EQ(table.GetByKey(Key("rat", "p9")).status().message(),
            "key ('rat', 'p9') not present in F");
  EXPECT_EQ(table.Replace(Row("rat", "p9", "a"), Row("rat", "p9", "b"))
                .message(),
            "key ('rat', 'p9') not present in F");
  EXPECT_EQ(table.Replace(Row("rat", "p1", "a"), Row("rat", "p2", "a"))
                .message(),
            "replacement key ('rat', 'p2') collides in F");
}

TEST(TableTest, CopiesAndMovesOutliveTheirSource) {
  Table copied(MakeF());
  Table moved(MakeF());
  {
    auto source = std::make_unique<Table>(MakeF());
    for (const char* protein : {"p1", "p2", "p3"}) {
      ASSERT_TRUE(source->Insert(Row("rat", protein, "x")).ok());
    }
    copied = *source;
    auto doomed = std::make_unique<Table>(*source);
    moved = std::move(*doomed);
  }
  // Lookups hash and compare through the functors each table owns.
  for (Table* table : {&copied, &moved}) {
    ASSERT_TRUE(table->Insert(Row("rat", "p4", "y")).ok());
    EXPECT_TRUE(table->ContainsKey(Key("rat", "p2")));
    ASSERT_TRUE(
        table->Replace(Row("rat", "p1", "x"), Row("rat", "p5", "x")).ok());
    EXPECT_TRUE(table->DeleteByKey(Key("rat", "p3")).ok());
    EXPECT_EQ(table->size(), 3u);
  }
  EXPECT_TRUE(copied == moved);
}

TEST(TableTest, InstanceCopiesAndMovesOutliveTheirSource) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddRelation(MakeF()).ok());
  std::unique_ptr<Instance> copied;
  std::unique_ptr<Instance> moved;
  {
    auto source = std::make_unique<Instance>(&catalog);
    ASSERT_TRUE((*source->GetTable("F"))->Insert(Row("rat", "p1", "x")).ok());
    copied = std::make_unique<Instance>(*source);
    moved = std::make_unique<Instance>(std::move(*source));
  }
  for (Instance* instance : {copied.get(), moved.get()}) {
    Table* table = *instance->GetTable("F");
    EXPECT_TRUE(table->ContainsKey(Key("rat", "p1")));
    ASSERT_TRUE(table->Insert(Row("rat", "p2", "y")).ok());
    ASSERT_TRUE(
        table->Replace(Row("rat", "p1", "x"), Row("rat", "p1", "z")).ok());
  }
  EXPECT_TRUE(*copied == *moved);
}

// Rows() visits rows in the order a map from projected key to row
// visits its values when fed the same operations: the generator's
// victim picks and the first foreign-key violation reported depend on
// that order.
TEST(TableTest, RowsOrderMatchesAKeyToRowMap) {
  const RelationSchema schema = MakeF();
  Table table(schema);
  std::unordered_map<Tuple, Tuple, TupleHash> reference;
  Rng rng(17);
  const auto pick = [&](uint64_t bound) {
    return "p" + std::to_string(rng.NextBounded(bound));
  };
  for (int step = 0; step < 4000; ++step) {
    const std::string protein = pick(600);
    const Tuple key{Value("rat"), Value(protein)};
    const auto it = reference.find(key);
    const uint64_t op = rng.NextBounded(4);
    if (it == reference.end()) {
      const Tuple row{Value("rat"), Value(protein), Value(pick(5))};
      ASSERT_TRUE(table.Insert(row).ok());
      reference.emplace(key, row);
    } else if (op == 0) {
      ASSERT_TRUE(table.DeleteByKey(key).ok());
      reference.erase(it);
    } else if (op == 1) {
      const Tuple row{Value("rat"), Value(protein), Value(pick(5))};
      ASSERT_TRUE(table.Replace(it->second, row).ok());
      it->second = row;
    } else {
      const std::string target = pick(600);
      const Tuple moved_key{Value("rat"), Value(target)};
      const Tuple row{Value("rat"), Value(target), Value(pick(5))};
      const Status replaced = table.Replace(it->second, row);
      if (moved_key != key && reference.count(moved_key) != 0) {
        ASSERT_EQ(replaced.code(), StatusCode::kAlreadyExists);
        continue;
      }
      ASSERT_TRUE(replaced.ok()) << replaced.ToString();
      if (moved_key == key) {
        it->second = row;
      } else {
        reference.erase(it);
        reference.emplace(moved_key, row);
      }
    }
    if (step % 97 == 0 || step == 3999) {
      std::vector<Tuple> expected;
      for (const auto& [unused, row] : reference) expected.push_back(row);
      ASSERT_EQ(std::vector<Tuple>(table.Rows().begin(), table.Rows().end()),
                expected)
          << "step " << step;
    }
  }
}

}  // namespace
}  // namespace orchestra::db
