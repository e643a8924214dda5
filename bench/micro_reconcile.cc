// Microbenchmarks for the reconciliation algorithm's components,
// validating the O(t^2 + t·u·a) cost analysis of §5.1 and the costs of
// the substrates (flattening, conflict detection, DHT routing, storage
// engine, serialization). The machine-readable studies and sweeps live
// in `orch_sweep`.
#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "core/append_only.h"
#include "core/conflict.h"
#include "core/flatten.h"
#include "core/reconciler.h"
#include "db/serde.h"
#include "net/dht.h"
#include "storage/engine.h"
#include "sweep_harness.h"

namespace {

using namespace orchestra;
using bench::ProteinCatalog;

db::Tuple Row(int key, const std::string& fn) {
  return db::Tuple{db::Value("rat"), db::Value("P" + std::to_string(key)),
                   db::Value(fn)};
}

// --- Flatten: chain of u updates over one tuple. ---
void BM_FlattenChain(benchmark::State& state) {
  const int u = static_cast<int>(state.range(0));
  std::vector<core::Update> seq;
  seq.push_back(core::Update::Insert("F", Row(1, "v0"), 1));
  for (int i = 1; i < u; ++i) {
    seq.push_back(core::Update::Modify("F", Row(1, "v" + std::to_string(i - 1)),
                                       Row(1, "v" + std::to_string(i)), 1));
  }
  for (auto _ : state) {
    auto flat = core::Flatten(ProteinCatalog(), seq);
    benchmark::DoNotOptimize(flat);
  }
  state.SetItemsProcessed(state.iterations() * u);
}
BENCHMARK(BM_FlattenChain)->Arg(2)->Arg(8)->Arg(32)->Arg(128);

// --- Flatten: n independent tuples. ---
void BM_FlattenIndependent(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<core::Update> seq;
  for (int i = 0; i < n; ++i) {
    seq.push_back(core::Update::Insert("F", Row(i, "fn"), 1));
  }
  for (auto _ : state) {
    auto flat = core::Flatten(ProteinCatalog(), seq);
    benchmark::DoNotOptimize(flat);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_FlattenIndependent)->Arg(8)->Arg(64)->Arg(512);

// --- Conflict detection between two flattened sets. ---
void BM_SetsConflict(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<core::Update> a, b;
  for (int i = 0; i < n; ++i) {
    a.push_back(core::Update::Insert("F", Row(i, "left"), 1));
    // Half the keys overlap (and conflict), half do not.
    b.push_back(core::Update::Insert("F", Row(i + n / 2, "right"), 2));
  }
  for (auto _ : state) {
    auto points = core::SetsConflict(ProteinCatalog(), a, b);
    benchmark::DoNotOptimize(points);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SetsConflict)->Arg(8)->Arg(64)->Arg(512);

// --- Full ReconcileUpdates with t single-update transactions, a given
// fraction of which collide pairwise (the t^2 term of §5.1). ---
void BM_ReconcileUpdates(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  const bool conflicting = state.range(1) != 0;
  core::TransactionMap map;
  std::vector<core::TrustedTxn> txns;
  for (int i = 0; i < t; ++i) {
    core::Transaction txn;
    txn.id = {static_cast<core::ParticipantId>(2 + i % 5),
              static_cast<uint64_t>(i)};
    // In conflicting mode every transaction writes one of 4 hot keys
    // with its own value; otherwise keys are unique.
    const int key = conflicting ? i % 4 : i;
    txn.updates.push_back(core::Update::Insert(
        "F", Row(key, "fn" + std::to_string(i)), txn.id.origin));
    txn.epoch = 1 + i;
    // ORCH_LINT(allow:S1): TransactionMap::Put returns void; the name collides with StorageEngine::Put in the include closure
    map.Put(txn);
    core::TrustedTxn trusted;
    trusted.id = txn.id;
    trusted.priority = 1;
    trusted.extension = {txn.id};
    txns.push_back(trusted);
  }
  core::Reconciler reconciler(&ProteinCatalog());
  core::TxnIdSet applied, rejected;
  core::RelKeySet dirty;
  for (auto _ : state) {
    db::Instance instance(&ProteinCatalog());
    core::ReconcileInput input;
    input.recno = 1;
    input.txns = txns;
    input.provider = &map;
    input.applied = &applied;
    input.rejected = &rejected;
    input.dirty = &dirty;
    auto outcome = reconciler.Run(input, &instance);
    benchmark::DoNotOptimize(outcome);
  }
  state.SetItemsProcessed(state.iterations() * t);
}
BENCHMARK(BM_ReconcileUpdates)
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({256, 0})
    ->Args({16, 1})
    ->Args({64, 1})
    ->Args({256, 1});

// --- Append-only reconciliation (Definition 2) vs. the general
// algorithm on the same insert-only epoch: the simpler model skips
// extension computation and flattening entirely. ---
void BM_AppendOnlyEpoch(benchmark::State& state) {
  const int t = static_cast<int>(state.range(0));
  std::vector<core::Transaction> epoch;
  for (int i = 0; i < t; ++i) {
    core::Transaction txn;
    txn.id = {2, static_cast<uint64_t>(i)};
    txn.epoch = 1;
    txn.updates.push_back(core::Update::Insert("F", Row(i, "fn"), 2));
    epoch.push_back(std::move(txn));
  }
  core::TrustPolicy policy(1);
  policy.TrustPeer(2, 1);
  for (auto _ : state) {
    db::Instance instance(&ProteinCatalog());
    core::AppendOnlyReconciler reconciler(&ProteinCatalog(), &policy);
    auto result = reconciler.ApplyEpoch(epoch, &instance);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(state.iterations() * t);
}
BENCHMARK(BM_AppendOnlyEpoch)->Arg(16)->Arg(64)->Arg(256);

// --- DHT routing hop computation. ---
void BM_DhtRoute(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  net::DhtRing ring(n);
  uint64_t key = 0;
  for (auto _ : state) {
    auto route = ring.Route(key % n, net::KeyHash("k" + std::to_string(key)));
    benchmark::DoNotOptimize(route);
    ++key;
  }
}
BENCHMARK(BM_DhtRoute)->Arg(10)->Arg(50)->Arg(200);

// --- Storage engine put/get. ---
void BM_EnginePutGet(benchmark::State& state) {
  auto engine = storage::StorageEngine::InMemory();
  int i = 0;
  for (auto _ : state) {
    const std::string key = "k" + std::to_string(i % 4096);
    benchmark::DoNotOptimize(engine->Put("bench", key, "payload-value"));
    benchmark::DoNotOptimize(engine->Get("bench", key));
    ++i;
  }
}
BENCHMARK(BM_EnginePutGet);

// --- Transaction serialization round trip. ---
void BM_TransactionSerde(benchmark::State& state) {
  core::Transaction txn;
  txn.id = {3, 12};
  txn.epoch = 42;
  for (int i = 0; i < 8; ++i) {
    txn.updates.push_back(core::Update::Insert("F", Row(i, "function"), 3));
  }
  txn.antecedents = {{1, 3}, {2, 9}};
  for (auto _ : state) {
    std::string buf;
    core::EncodeTransaction(&buf, txn);
    size_t pos = 0;
    auto decoded = core::DecodeTransaction(buf, &pos);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_TransactionSerde);

}  // namespace

BENCHMARK_MAIN();
