#include "core/apply.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace orchestra::core {
namespace {

using orchestra::testing::Del;
using orchestra::testing::Ins;
using orchestra::testing::InstanceHasExactly;
using orchestra::testing::MakeProteinCatalog;
using orchestra::testing::Mod;
using orchestra::testing::T;

class ApplyTest : public ::testing::Test {
 protected:
  db::Catalog catalog_ = MakeProteinCatalog();
  db::Instance instance_{&catalog_};

  void Seed(std::vector<db::Tuple> tuples) {
    auto table = instance_.GetTable("F");
    ORCH_CHECK(table.ok());
    for (db::Tuple& t : tuples) {
      ORCH_CHECK((*table)->Insert(t).ok());
    }
  }
};

TEST_F(ApplyTest, InsertIntoEmptyInstance) {
  ASSERT_TRUE(ApplyFlattened(&instance_, {Ins("rat", "p1", "x", 1)}).ok());
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "x"})}));
}

TEST_F(ApplyTest, InsertCollidingWithDifferentValueFails) {
  Seed({T({"rat", "p1", "x"})});
  auto status = CheckApplicable(instance_, {Ins("rat", "p1", "y", 1)});
  EXPECT_TRUE(status.IsConflict());
  // The instance is untouched by a failed check or apply.
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "x"})}));
}

TEST_F(ApplyTest, IdenticalInsertIsIdempotent) {
  Seed({T({"rat", "p1", "x"})});
  ASSERT_TRUE(ApplyFlattened(&instance_, {Ins("rat", "p1", "x", 1)}).ok());
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "x"})}));
}

TEST_F(ApplyTest, DeleteExistingTuple) {
  Seed({T({"rat", "p1", "x"})});
  ASSERT_TRUE(ApplyFlattened(&instance_, {Del("rat", "p1", "x", 1)}).ok());
  EXPECT_TRUE(InstanceHasExactly(instance_, {}));
}

TEST_F(ApplyTest, DeleteOfAbsentKeyIsIdempotent) {
  ASSERT_TRUE(ApplyFlattened(&instance_, {Del("rat", "p1", "x", 1)}).ok());
}

TEST_F(ApplyTest, DeleteWithStalePreImageFails) {
  Seed({T({"rat", "p1", "current"})});
  EXPECT_TRUE(CheckApplicable(instance_, {Del("rat", "p1", "stale", 1)})
                  .IsConflict());
}

TEST_F(ApplyTest, ModifyExistingTuple) {
  Seed({T({"rat", "p1", "a"})});
  ASSERT_TRUE(
      ApplyFlattened(&instance_, {Mod("rat", "p1", "a", "b", 1)}).ok());
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "b"})}));
}

TEST_F(ApplyTest, ModifyWithStalePreImageFails) {
  Seed({T({"rat", "p1", "other"})});
  EXPECT_TRUE(
      CheckApplicable(instance_, {Mod("rat", "p1", "a", "b", 1)}).IsConflict());
}

TEST_F(ApplyTest, ModifyAlreadyTakenEffectIsIdempotent) {
  Seed({T({"rat", "p1", "b"})});
  // Pre-image (rat,p1,a) is gone but the exact post-image is present.
  ASSERT_TRUE(
      ApplyFlattened(&instance_, {Mod("rat", "p1", "a", "b", 1)}).ok());
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "b"})}));
}

TEST_F(ApplyTest, ModifyOfAbsentTupleFails) {
  EXPECT_TRUE(
      CheckApplicable(instance_, {Mod("rat", "p1", "a", "b", 1)}).IsConflict());
}

TEST_F(ApplyTest, ModifyMovingOntoOccupiedKeyFails) {
  Seed({T({"rat", "p1", "a"}), T({"rat", "p2", "b"})});
  auto status = CheckApplicable(
      instance_,
      {Update::Modify("F", T({"rat", "p1", "a"}), T({"rat", "p2", "a"}), 1)});
  EXPECT_TRUE(status.IsConflict());
}

TEST_F(ApplyTest, DeleteFreesKeyForInsertInSameSet) {
  Seed({T({"rat", "p1", "a"})});
  ASSERT_TRUE(ApplyFlattened(&instance_, {Del("rat", "p1", "a", 1),
                                          Ins("rat", "p1", "b", 2)})
                  .ok());
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "b"})}));
}

TEST_F(ApplyTest, ChainedKeyMovesResolveViaFixpoint) {
  Seed({T({"rat", "p1", "a"}), T({"rat", "p2", "b"})});
  // p2 -> p3 must apply before p1 -> p2 can.
  const std::vector<Update> updates = {
      Update::Modify("F", T({"rat", "p1", "a"}), T({"rat", "p2", "a"}), 1),
      Update::Modify("F", T({"rat", "p2", "b"}), T({"rat", "p3", "b"}), 1),
  };
  ASSERT_TRUE(ApplyFlattened(&instance_, updates).ok());
  EXPECT_TRUE(InstanceHasExactly(
      instance_, {T({"rat", "p2", "a"}), T({"rat", "p3", "b"})}));
}

TEST_F(ApplyTest, SwapCycleFails) {
  Seed({T({"rat", "p1", "a"}), T({"rat", "p2", "b"})});
  const std::vector<Update> updates = {
      Update::Modify("F", T({"rat", "p1", "a"}), T({"rat", "p2", "a"}), 1),
      Update::Modify("F", T({"rat", "p2", "b"}), T({"rat", "p1", "b"}), 1),
  };
  EXPECT_FALSE(ApplyFlattened(&instance_, updates).ok());
  // All-or-nothing: nothing was applied.
  EXPECT_TRUE(InstanceHasExactly(
      instance_, {T({"rat", "p1", "a"}), T({"rat", "p2", "b"})}));
}

TEST_F(ApplyTest, OverlayGetSeesPendingChanges) {
  Seed({T({"rat", "p1", "a"})});
  InstanceOverlay overlay(&instance_);
  ASSERT_NE(overlay.Get("F", T({"rat", "p1"})), nullptr);
  EXPECT_EQ(*overlay.Get("F", T({"rat", "p1"})), T({"rat", "p1", "a"}));
  EXPECT_EQ(overlay.Get("F", T({"rat", "p9"})), nullptr);
  ASSERT_TRUE(overlay.Apply(Mod("rat", "p1", "a", "b", 1)).ok());
  ASSERT_NE(overlay.Get("F", T({"rat", "p1"})), nullptr);
  EXPECT_EQ(*overlay.Get("F", T({"rat", "p1"})), T({"rat", "p1", "b"}));
  ASSERT_TRUE(overlay.Apply(Del("rat", "p1", "b", 1)).ok());
  EXPECT_EQ(overlay.Get("F", T({"rat", "p1"})), nullptr);
  // Base instance untouched until commit.
  EXPECT_TRUE(InstanceHasExactly(instance_, {T({"rat", "p1", "a"})}));
}

TEST_F(ApplyTest, ForeignKeysCheckedOverPendingState) {
  db::Catalog catalog;
  {
    auto f = db::RelationSchema::Make(
        "F",
        {{"organism", db::ValueType::kString, false},
         {"protein", db::ValueType::kString, false},
         {"function", db::ValueType::kString, false}},
        {0, 1});
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(catalog.AddRelation(*std::move(f)).ok());
    auto x = db::RelationSchema::Make(
        "X",
        {{"organism", db::ValueType::kString, false},
         {"protein", db::ValueType::kString, false},
         {"db", db::ValueType::kString, false}},
        {0, 1, 2});
    ASSERT_TRUE(x.ok());
    ASSERT_TRUE(catalog.AddRelation(*std::move(x)).ok());
    ASSERT_TRUE(catalog.AddForeignKey({"X", {0, 1}, "F"}).ok());
  }
  db::Instance instance(&catalog);

  // Child + parent inserted together: FK satisfied through the overlay.
  ASSERT_TRUE(
      ApplyFlattened(&instance,
                     {Update::Insert("F", T({"rat", "p1", "fn"}), 1),
                      Update::Insert("X", T({"rat", "p1", "EMBL"}), 1)})
          .ok());

  // Child alone referencing a missing parent fails.
  auto status = CheckApplicable(
      instance, {Update::Insert("X", T({"rat", "p9", "EMBL"}), 1)});
  EXPECT_TRUE(status.IsConstraintViolation());

  // Deleting a referenced parent orphans the child and fails.
  status =
      CheckApplicable(instance, {Update::Delete("F", T({"rat", "p1", "fn"}), 1)});
  EXPECT_TRUE(status.IsConstraintViolation());

  // Deleting parent and child together succeeds.
  ASSERT_TRUE(
      ApplyFlattened(&instance,
                     {Update::Delete("F", T({"rat", "p1", "fn"}), 1),
                      Update::Delete("X", T({"rat", "p1", "EMBL"}), 1)})
          .ok());
  EXPECT_EQ(instance.TotalTuples(), 0u);
}

}  // namespace
}  // namespace orchestra::core
