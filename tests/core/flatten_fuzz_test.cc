// Property-based fuzz of the flattening semantics: for any valid update
// sequence, applying the flattened set must produce exactly the same
// instance as applying the sequence step by step — flattening only
// removes intermediate states, never changes the net effect ([12, 14]).
#include <gtest/gtest.h>

#include "common/random.h"
#include "core/apply.h"
#include "core/flatten.h"
#include "test_util.h"

namespace orchestra::core {
namespace {

using orchestra::testing::MakeProteinCatalog;

// Generates one random update that is valid against `state`, mutating
// `state` to track the evolving instance. Returns nullopt when the
// chosen operation is impossible (e.g. delete on an empty instance).
std::optional<Update> RandomStep(Rng& rng, const db::RelationSchema& schema,
                                 db::Table* state, size_t key_space) {
  const int kind = static_cast<int>(rng.NextBounded(4));
  auto random_key = [&] {
    return db::Tuple{db::Value("org" + std::to_string(rng.NextBounded(3))),
                     db::Value("p" + std::to_string(rng.NextBounded(
                                   static_cast<uint64_t>(key_space))))};
  };
  auto random_value = [&] {
    return db::Value("fn" + std::to_string(rng.NextBounded(6)));
  };
  switch (kind) {
    case 0: {  // insert a fresh key
      for (int attempt = 0; attempt < 8; ++attempt) {
        const db::Tuple key = random_key();
        if (state->ContainsKey(key)) continue;
        db::Tuple tuple{key[0], key[1], random_value()};
        ORCH_CHECK(state->Insert(tuple).ok());
        return Update::Insert("F", tuple, 1);
      }
      return std::nullopt;
    }
    case 1: {  // delete an existing tuple
      const std::vector<db::Tuple> rows(state->Rows().begin(),
                                        state->Rows().end());
      if (rows.empty()) return std::nullopt;
      const db::Tuple victim = rows[rng.NextBounded(rows.size())];
      ORCH_CHECK(state->DeleteByKey(schema.KeyOf(victim)).ok());
      return Update::Delete("F", victim, 1);
    }
    case 2: {  // modify, key unchanged
      const std::vector<db::Tuple> rows(state->Rows().begin(),
                                        state->Rows().end());
      if (rows.empty()) return std::nullopt;
      const db::Tuple victim = rows[rng.NextBounded(rows.size())];
      db::Tuple replacement{victim[0], victim[1], random_value()};
      if (replacement == victim) return std::nullopt;
      ORCH_CHECK(state->Replace(victim, replacement).ok());
      return Update::Modify("F", victim, replacement, 1);
    }
    default: {  // modify that moves the tuple to a fresh key
      const std::vector<db::Tuple> rows(state->Rows().begin(),
                                        state->Rows().end());
      if (rows.empty()) return std::nullopt;
      const db::Tuple victim = rows[rng.NextBounded(rows.size())];
      for (int attempt = 0; attempt < 8; ++attempt) {
        const db::Tuple key = random_key();
        if (state->ContainsKey(key)) continue;
        db::Tuple replacement{key[0], key[1], victim[2]};
        ORCH_CHECK(state->Replace(victim, replacement).ok());
        return Update::Modify("F", victim, replacement, 1);
      }
      return std::nullopt;
    }
  }
}

class FlattenFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FlattenFuzzTest, FlattenedSetEquivalentToSequence) {
  Rng rng(GetParam());
  db::Catalog catalog = MakeProteinCatalog();
  const db::RelationSchema& schema = **catalog.GetRelation("F");

  for (int scenario = 0; scenario < 60; ++scenario) {
    // Random base instance.
    db::Instance base(&catalog);
    {
      auto table = base.GetTable("F");
      const size_t seeds = rng.NextBounded(6);
      for (size_t i = 0; i < seeds; ++i) {
        db::Tuple t{db::Value("org" + std::to_string(rng.NextBounded(3))),
                    db::Value("p" + std::to_string(i)),
                    db::Value("fn" + std::to_string(rng.NextBounded(6)))};
        ORCH_CHECK((*table)->Insert(t).ok() || true);
      }
    }
    // Sequentially evolve a copy, recording the updates.
    db::Instance sequential = base;
    std::vector<Update> sequence;
    {
      auto table = sequential.GetTable("F");
      const size_t steps = 1 + rng.NextBounded(24);
      for (size_t s = 0; s < steps; ++s) {
        auto step = RandomStep(rng, schema, *table, 8);
        if (step) sequence.push_back(*std::move(step));
      }
    }
    if (sequence.empty()) continue;

    // Flatten and apply to the untouched base.
    auto flattened = Flatten(catalog, sequence);
    ASSERT_TRUE(flattened.ok())
        << "seed " << GetParam() << " scenario " << scenario << ": "
        << flattened.status().ToString();
    db::Instance flattened_applied = base;
    auto status = ApplyFlattened(&flattened_applied, *flattened);
    ASSERT_TRUE(status.ok())
        << "seed " << GetParam() << " scenario " << scenario << ": "
        << status.ToString();

    EXPECT_TRUE(flattened_applied == sequential)
        << "seed " << GetParam() << " scenario " << scenario
        << "\nsequence size " << sequence.size() << "\nflattened size "
        << flattened->size() << "\nsequential:\n"
        << sequential.ToString() << "flattened:\n"
        << flattened_applied.ToString();

    // A flattened *set* is not necessarily a valid *sequence* in its
    // deterministic output order (independent key-moving chains can
    // appear "out of order"). Re-flattening must therefore either
    // detect the mismatch (Conflict) or — when the order happens to be
    // sequentially valid — preserve the effect exactly. It must never
    // silently compose a different result.
    auto again = Flatten(catalog, *flattened);
    if (again.ok()) {
      db::Instance again_applied = base;
      ASSERT_TRUE(ApplyFlattened(&again_applied, *again).ok());
      EXPECT_TRUE(again_applied == sequential)
          << "re-flattening changed the effect (seed " << GetParam()
          << " scenario " << scenario << ")";
    } else {
      EXPECT_TRUE(again.status().IsConflict());
    }

    // And the flattened set never exceeds the sequence in size.
    EXPECT_LE(flattened->size(), sequence.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlattenFuzzTest,
                         ::testing::Range<uint64_t>(100, 110));

}  // namespace
}  // namespace orchestra::core
