#ifndef ORCHESTRA_TESTS_TEST_UTIL_H_
#define ORCHESTRA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/fault_injector.h"
#include "db/instance.h"
#include "db/schema.h"
#include "core/transaction.h"
#include "core/update.h"
#include "core/update_store.h"
#include "net/sim_network.h"
#include "storage/engine.h"
#include "store/central_store.h"
#include "store/dht_store.h"

namespace orchestra::testing {

/// F(organism, protein, function) with key (organism, protein) — the
/// relation of the paper's running example (Fig. 2).
inline db::Catalog MakeProteinCatalog() {
  db::Catalog catalog;
  auto schema = db::RelationSchema::Make(
      "F",
      {{"organism", db::ValueType::kString, false},
       {"protein", db::ValueType::kString, false},
       {"function", db::ValueType::kString, false}},
      {0, 1});
  ORCH_CHECK(schema.ok());
  ORCH_CHECK(catalog.AddRelation(*std::move(schema)).ok());
  return catalog;
}

/// Shorthand tuple of string values.
inline db::Tuple T(std::initializer_list<const char*> values) {
  std::vector<db::Value> out;
  out.reserve(values.size());
  for (const char* v : values) out.emplace_back(v);
  return db::Tuple(std::move(out));
}

inline core::Update Ins(const char* organism, const char* protein,
                        const char* function, core::ParticipantId origin) {
  return core::Update::Insert("F", T({organism, protein, function}), origin);
}

inline core::Update Del(const char* organism, const char* protein,
                        const char* function, core::ParticipantId origin) {
  return core::Update::Delete("F", T({organism, protein, function}), origin);
}

inline core::Update Mod(const char* organism, const char* protein,
                        const char* from_function, const char* to_function,
                        core::ParticipantId origin) {
  return core::Update::Modify("F", T({organism, protein, from_function}),
                              T({organism, protein, to_function}), origin);
}

/// Builds a transaction with explicit id parts and updates.
inline core::Transaction Txn(core::ParticipantId origin, uint64_t seq,
                             std::vector<core::Update> updates,
                             std::vector<core::TransactionId> antecedents = {},
                             core::Epoch epoch = 0) {
  core::Transaction txn;
  txn.id = core::TransactionId{origin, seq};
  txn.updates = std::move(updates);
  txn.antecedents = std::move(antecedents);
  txn.epoch = epoch;
  return txn;
}

/// True if the instance's F table contains exactly `tuples` (any order).
inline bool InstanceHasExactly(const db::Instance& instance,
                               std::vector<db::Tuple> tuples) {
  auto table = instance.GetTable("F");
  ORCH_CHECK(table.ok());
  if ((*table)->size() != tuples.size()) return false;
  for (const db::Tuple& t : tuples) {
    if (!(*table)->ContainsTuple(t)) return false;
  }
  return true;
}

/// The two update-store implementations, as a test parameter.
enum class StoreKind { kCentral, kDht };

/// Both store kinds, for INSTANTIATE_TEST_SUITE_P with StoreKindName.
inline auto AllStoreKinds() {
  return ::testing::Values(StoreKind::kCentral, StoreKind::kDht);
}

inline std::string StoreKindName(
    const ::testing::TestParamInfo<StoreKind>& info) {
  return info.param == StoreKind::kCentral ? "Central" : "Dht";
}

/// A store under test, with the engine the central store runs on.
struct TestStore {
  std::unique_ptr<storage::StorageEngine> engine;  // central only
  std::unique_ptr<core::UpdateStore> store;
};

/// A store of `kind` over `network`: the central store on a fresh
/// in-memory engine, or a DHT of `dht_nodes` nodes. `injector`, when
/// set, goes where each store's faults arise (the engine, or the
/// network); `catalog` enables network-centric reconciliation.
inline TestStore MakeTestStore(StoreKind kind, net::SimNetwork* network,
                               size_t dht_nodes = 4,
                               FaultInjector* injector = nullptr,
                               const db::Catalog* catalog = nullptr) {
  TestStore made;
  if (kind == StoreKind::kCentral) {
    made.engine = storage::StorageEngine::InMemory();
    made.engine->set_fault_injector(injector);
    made.store = std::make_unique<store::CentralStore>(
        made.engine.get(), network, store::CentralStoreOptions{}, catalog);
  } else {
    network->set_fault_injector(injector);
    made.store =
        std::make_unique<store::DhtStore>(dht_nodes, network, catalog);
  }
  return made;
}

}  // namespace orchestra::testing

#endif  // ORCHESTRA_TESTS_TEST_UTIL_H_
