// Microbenchmarks for the reconciliation algorithm's components,
// validating the O(t^2 + t·u·a) cost analysis of §5.1 and the costs of
// the substrates (flattening, conflict detection, DHT routing, storage
// engine, serialization).
//
// Before the google-benchmark suite runs, main() executes a fixed
// reconciliation study over a 512-transaction workload — plain runs
// interleaved with provenance-collecting runs — and writes the wall-time
// distribution and the provenance overhead to BENCH_micro_reconcile.json
// (override the path with the ORCH_BENCH_JSON env var), so the perf
// trajectory is machine-readable across PRs.
//
// Setting ORCH_FAULT_SWEEP=1 switches the binary into a fault-sweep
// mode instead: a full 25-peer confederation runs against both stores
// with message/storage faults injected at several seeds, each faulted
// run is compared field-by-field against the fault-free baseline, and
// the outcome is written to BENCH_fault_sweep.json (override with
// ORCH_FAULT_SWEEP_JSON).
//
// Setting ORCH_CHURN_SWEEP=1 instead runs the DHT node-churn sweep: a
// 25-peer confederation on the DHT store with replication factor 3
// endures a seeded schedule of node crashes, joins and graceful leaves
// interleaved with the reconciliation rounds, and every run's final
// per-peer decisions must be bit-identical to the churn-free baseline.
// A control leg repeats the schedule with replication disabled (k=1) and
// must demonstrably lose data, proving the replication layer is
// load-bearing. Output goes to BENCH_churn_sweep.json (override with
// ORCH_CHURN_SWEEP_JSON).
//
// Setting ORCH_DELTA_SWEEP=1 instead runs the delta-fetch sweep: a
// multi-round steady state on both stores under each core::FetchMode,
// recording per-round wall time and store message counts. Central delta
// rounds must be at least 3x faster than the kFull reference in steady
// state, DHT delta rounds must send fewer messages and finish sooner in
// simulated time, and both modes' per-peer decisions must be
// bit-identical. Output goes to BENCH_delta_sweep.json (override with
// ORCH_DELTA_SWEEP_JSON).
//
// Setting ORCH_CORRUPTION_SWEEP=1 instead runs the end-to-end integrity
// sweep: both stores endure silent data corruption (at-rest bit flips,
// in-flight payload corruption) at several seeds, and every protected
// run must (a) finish, (b) produce per-peer decisions bit-identical to
// the corruption-free baseline, and (c) read zero corrupt bytes
// undetected — checksums catch every hit and failover/read-repair/
// re-reads absorb them. Standalone WAL legs exercise the torn-write,
// truncated-tail and bit-flip recovery paths with skip accounting. A
// checksums-disabled control leg re-runs the worst seed and must
// demonstrably consume rot (undetected reads, divergence, or a hard
// error), proving the envelopes are load-bearing. Output goes to
// BENCH_corruption_sweep.json (override with ORCH_CORRUPTION_SWEEP_JSON).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/metrics.h"
#include "core/append_only.h"
#include "sim/cdss.h"
#include "core/conflict.h"
#include "core/flatten.h"
#include "core/reconciler.h"
#include "db/serde.h"
#include "net/dht.h"
#include "common/fault_injector.h"
#include "storage/engine.h"
#include "storage/wal.h"
#include "workload/swissprot.h"

namespace {

using namespace orchestra;

db::Catalog& ProteinCatalog() {
  static db::Catalog& catalog = *new db::Catalog([] {
    db::Catalog c;
    auto schema = db::RelationSchema::Make(
        "F",
        {{"organism", db::ValueType::kString, false},
         {"protein", db::ValueType::kString, false},
         {"function", db::ValueType::kString, false}},
        {0, 1});
    ORCH_CHECK(schema.ok());
    ORCH_CHECK(c.AddRelation(*std::move(schema)).ok());
    return c;
  }());
  return catalog;
}

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

// --- Reconciliation study: provenance off vs. on. ---
//
// Workload: `peers` publisher chains of `per_peer` transactions each.
// Transaction t of peer p inserts a unique protein and writes one of
// the peer's two hot proteins, which it shares with the next peer —
// so adjacent chains collide on hot keys (replace/replace and
// insert/insert direct conflicts), extensions grow along each chain
// (flattening work scales with t), and the candidate-pair phase
// dominates, matching the §5.1 profile.
struct StudyWorkload {
  core::TransactionMap map;
  std::vector<core::TrustedTxn> txns;
};

StudyWorkload MakeStudyWorkload(size_t peers, size_t per_peer) {
  StudyWorkload w;
  for (size_t p = 0; p < peers; ++p) {
    const auto origin = static_cast<core::ParticipantId>(1 + p);
    // Hot keys shared with the neighbouring chain.
    const std::string hot[2] = {"H" + std::to_string(p),
                                "H" + std::to_string((p + 1) % peers)};
    std::string last_value[2];
    std::vector<core::TransactionId> extension;
    for (size_t t = 0; t < per_peer; ++t) {
      core::Transaction txn;
      txn.id = {origin, static_cast<uint64_t>(t)};
      const std::string unique =
          "U" + std::to_string(p) + "_" + std::to_string(t);
      const std::string value =
          "f" + std::to_string(p) + "_" + std::to_string(t);
      txn.updates.push_back(core::Update::Insert(
          "F", db::Tuple{db::Value("rat"), db::Value(unique),
                         db::Value(value)},
          origin));
      const size_t h = t % 2;
      const db::Tuple hot_row{db::Value("rat"), db::Value(hot[h]),
                              db::Value(value)};
      if (last_value[h].empty()) {
        txn.updates.push_back(core::Update::Insert("F", hot_row, origin));
      } else {
        txn.updates.push_back(core::Update::Modify(
            "F",
            db::Tuple{db::Value("rat"), db::Value(hot[h]),
                      db::Value(last_value[h])},
            hot_row, origin));
      }
      last_value[h] = value;
      if (t > 0) txn.antecedents.push_back({origin, t - 1});
      txn.epoch = static_cast<core::Epoch>(1 + t);
      // ORCH_LINT(allow:S1): TransactionMap::Put returns void; the name collides with StorageEngine::Put in the include closure
      w.map.Put(txn);

      extension.push_back(txn.id);
      core::TrustedTxn trusted;
      trusted.id = txn.id;
      trusted.priority = 1;
      trusted.extension = extension;
      w.txns.push_back(std::move(trusted));
    }
  }
  return w;
}

int64_t RunStudyOnce(const StudyWorkload& w, const core::Reconciler& rec,
                     bool collect_provenance) {
  db::Instance instance(&ProteinCatalog());
  core::TxnIdSet applied, rejected;
  core::RelKeySet dirty;
  core::ReconcileInput input;
  input.recno = 1;
  input.txns = w.txns;
  input.provider = &w.map;
  input.applied = &applied;
  input.rejected = &rejected;
  input.dirty = &dirty;
  input.collect_provenance = collect_provenance;
  Stopwatch clock;
  auto outcome = rec.Run(input, &instance);
  const int64_t micros = clock.ElapsedMicros();
  ORCH_CHECK(outcome.ok());
  return micros;
}

struct Series {
  double mean_us = 0;
  int64_t p50_us = 0;
  int64_t p95_us = 0;
};

Series Summarize(std::vector<int64_t> samples) {
  std::sort(samples.begin(), samples.end());
  Series s;
  for (int64_t v : samples) s.mean_us += static_cast<double>(v);
  s.mean_us /= static_cast<double>(samples.size());
  s.p50_us = samples[samples.size() / 2];
  s.p95_us = samples[std::min(samples.size() - 1,
                              (samples.size() * 95 + 99) / 100)];
  return s;
}

// Nearest-rank quantile of an ascending, non-empty sample.
double Quantile(const std::vector<double>& sorted, double q) {
  return sorted[static_cast<size_t>(q * (sorted.size() - 1))];
}

void RunReconcileStudy() {
  constexpr size_t kPeers = 8;
  constexpr size_t kPerPeer = 64;  // 512 transactions
  constexpr size_t kReps = 5;
  const StudyWorkload w = MakeStudyWorkload(kPeers, kPerPeer);
  const core::Reconciler rec(&ProteinCatalog());

  // The provenance series collects per-verdict provenance records,
  // isolating the explainability overhead. The two series run as
  // interleaved pairs, alternating which side goes first, so host drift
  // lands inside a pair rather than between the series; the overhead is
  // the median per-pair ratio.
  std::vector<int64_t> serial, provenance;
  std::vector<double> overhead_pct;
  for (size_t r = 0; r < kReps; ++r) {
    const bool provenance_first = r % 2 == 1;
    const int64_t first = RunStudyOnce(w, rec, provenance_first);
    const int64_t second = RunStudyOnce(w, rec, !provenance_first);
    serial.push_back(provenance_first ? second : first);
    provenance.push_back(provenance_first ? first : second);
    overhead_pct.push_back(100.0 * static_cast<double>(provenance.back()) /
                               static_cast<double>(serial.back()) -
                           100.0);
  }
  std::sort(overhead_pct.begin(), overhead_pct.end());
  const double median_pct = Quantile(overhead_pct, 0.5);
  const double iqr_pct =
      Quantile(overhead_pct, 0.75) - Quantile(overhead_pct, 0.25);
  const std::pair<const char*, Series> results[] = {
      {"serial", Summarize(std::move(serial))},
      {"provenance_on", Summarize(std::move(provenance))},
  };
  for (const auto& [name, series] : results) {
    std::printf("micro_reconcile study %-13s mean %10.1f us\n", name,
                series.mean_us);
  }

  const char* path = std::getenv("ORCH_BENCH_JSON");
  if (path == nullptr) path = "BENCH_micro_reconcile.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"micro_reconcile\",\n");
  std::fprintf(f, "  \"transactions\": %zu,\n  \"repetitions\": %zu,\n",
               kPeers * kPerPeer, kReps);
  std::fprintf(f, "  \"series\": {\n");
  for (size_t i = 0; i < std::size(results); ++i) {
    const auto& [name, s] = results[i];
    std::fprintf(f,
                 "    \"%s\": {\"mean_us\": %.1f, \"p50_us\": %lld, "
                 "\"p95_us\": %lld}%s\n",
                 name, s.mean_us, static_cast<long long>(s.p50_us),
                 static_cast<long long>(s.p95_us),
                 i + 1 < std::size(results) ? "," : "");
  }
  std::fprintf(f, "  },\n");
  // Wall-time derived, so stripped before the baseline diff; the budget
  // is enforced by eye (and by CI printing it), not by a flaky timing
  // gate.
  std::fprintf(f, "  \"provenance_overhead_pct\": %.1f,\n", median_pct);
  std::fprintf(f, "  \"provenance_overhead_iqr_pct\": %.1f\n", iqr_pct);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf(
      "micro_reconcile provenance overhead: %.1f%% (IQR %.1f%%, budget 5%%)\n",
      median_pct, iqr_pct);
  std::printf("micro_reconcile study written to %s\n", path);
}

// --- Fault sweep (ORCH_FAULT_SWEEP=1). ---
//
// For each store kind, one fault-free baseline run, then one faulted
// run per seed with a 1% failure probability on every store-side
// side-effecting operation. The crash-consistency claim under test:
// every faulted run finishes without an Internal error and converges to
// exactly the baseline's decisions and state ratio, with retries and
// the stuck-epoch reaper absorbing the losses.

// Movement of the process-wide metrics registry (common/metrics.h) over
// one sweep, rendered as a top-level "metrics" JSON object. Time-valued
// counters (names ending in "_micros") are dropped: everything that
// remains counts discrete events deterministic for a fixed seed, so the
// block participates in the baseline diff instead of being stripped.
void WriteMetricsBlock(std::FILE* f,
                       const std::map<std::string, int64_t>& deltas) {
  std::fprintf(f, "  \"metrics\": {");
  bool first = true;
  for (const auto& [name, value] : deltas) {
    constexpr std::string_view kTimeSuffix = "_micros";
    if (name.size() >= kTimeSuffix.size() &&
        name.compare(name.size() - kTimeSuffix.size(), kTimeSuffix.size(),
                     kTimeSuffix) == 0) {
      continue;
    }
    std::fprintf(f, "%s\n    \"%s\": %lld", first ? "" : ",", name.c_str(),
                 static_cast<long long>(value));
    first = false;
  }
  std::fprintf(f, "\n  },\n");
}

sim::CdssConfig SweepConfig(sim::StoreKind store) {
  sim::CdssConfig cfg;
  cfg.participants = 25;
  cfg.store = store;
  cfg.rounds = 4;
  cfg.txns_between_recons = 2;
  return cfg;
}

bool RunFaultSweep() {
  const char* flag = std::getenv("ORCH_FAULT_SWEEP");
  if (flag == nullptr || flag[0] == '\0' || flag[0] == '0') return false;
  const std::map<std::string, int64_t> sweep_start =
      MetricsRegistry::Global().CounterValues();

  struct Row {
    std::string store;
    uint64_t seed;  // 0 = fault-free baseline
    bool ok = false;
    bool matches_baseline = false;
    std::string error;
    sim::CdssResult result;
  };
  const uint64_t kSeeds[] = {1, 2, 3};
  std::vector<Row> rows;
  bool all_ok = true;

  for (sim::StoreKind kind : {sim::StoreKind::kCentral, sim::StoreKind::kDht}) {
    const char* store_name =
        kind == sim::StoreKind::kCentral ? "central" : "dht";
    auto run = [&](uint64_t fault_seed) -> Row {
      Row row;
      row.store = store_name;
      row.seed = fault_seed;
      sim::CdssConfig cfg = SweepConfig(kind);
      if (fault_seed != 0) {
        cfg.fault.failure_probability = 0.01;
        cfg.fault.seed = fault_seed;
      }
      auto cdss = sim::Cdss::Make(cfg);
      if (!cdss.ok()) {
        row.error = cdss.status().ToString();
        return row;
      }
      auto result = (*cdss)->Run();
      if (!result.ok()) {
        row.error = result.status().ToString();
        return row;
      }
      row.ok = true;
      row.result = *result;
      return row;
    };

    const Row baseline = run(0);
    rows.push_back(baseline);
    all_ok = all_ok && baseline.ok;
    for (uint64_t seed : kSeeds) {
      Row row = run(seed);
      if (row.ok && baseline.ok) {
        row.matches_baseline =
            row.result.accepted == baseline.result.accepted &&
            row.result.rejected == baseline.result.rejected &&
            row.result.deferred == baseline.result.deferred &&
            row.result.transactions_published ==
                baseline.result.transactions_published &&
            row.result.state_ratio == baseline.result.state_ratio;
      }
      all_ok = all_ok && row.ok && row.matches_baseline;
      std::printf(
          "fault sweep %-7s seed %llu: %s, %lld faults, %lld retried ops, "
          "%s baseline\n",
          store_name, static_cast<unsigned long long>(seed),
          row.ok ? "completed" : row.error.c_str(),
          static_cast<long long>(row.result.faults_injected),
          static_cast<long long>(row.result.retried_operations),
          row.matches_baseline ? "matches" : "DIVERGES FROM");
      rows.push_back(std::move(row));
    }
  }

  const char* path = std::getenv("ORCH_FAULT_SWEEP_JSON");
  if (path == nullptr) path = "BENCH_fault_sweep.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return true;
  }
  std::fprintf(f, "{\n  \"bench\": \"fault_sweep\",\n");
  std::fprintf(f, "  \"failure_probability\": 0.01,\n");
  std::fprintf(f, "  \"all_runs_match_baseline\": %s,\n",
               all_ok ? "true" : "false");
  WriteMetricsBlock(f, CounterDeltas(sweep_start,
                                     MetricsRegistry::Global().CounterValues()));
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"store\": \"%s\", \"seed\": %llu, \"completed\": %s, "
        "\"faults_injected\": %lld, \"retried_operations\": %lld, "
        "\"backoff_micros\": %lld, \"accepted\": %zu, \"deferred\": %zu, "
        "\"state_ratio\": %.6f, \"matches_baseline\": %s}%s\n",
        r.store.c_str(), static_cast<unsigned long long>(r.seed),
        r.ok ? "true" : "false",
        static_cast<long long>(r.result.faults_injected),
        static_cast<long long>(r.result.retried_operations),
        static_cast<long long>(r.result.backoff_micros), r.result.accepted,
        r.result.deferred, r.result.state_ratio,
        r.seed == 0 ? "true" : (r.matches_baseline ? "true" : "false"),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("fault sweep written to %s (%s)\n", path,
              all_ok ? "all runs match baseline" : "DIVERGENCE DETECTED");
  return true;
}

// --- Churn sweep (ORCH_CHURN_SWEEP=1). ---
//
// The robustness claim under test: DHT node churn — crashes, joins,
// graceful leaves between reconciliation rounds — changes *costs* but
// never *outcomes*. Replica groups (k=3) absorb each crash, key-range
// re-replication restores the invariant after every event, and failover
// reads keep every controller readable, so each peer's final
// applied/rejected decision sets are bit-identical to a churn-free run.
// The k=1 control leg runs the same schedule with replication disabled
// and must lose data (an error or diverging decisions).

// One peer's final decision sets, in comparable (sorted) form.
std::vector<std::pair<uint32_t, uint64_t>> SortedIds(
    const core::TxnIdSet& ids) {
  std::vector<std::pair<uint32_t, uint64_t>> out;
  out.reserve(ids.size());
  for (const core::TransactionId& id : ids) out.emplace_back(id.origin, id.seq);
  std::sort(out.begin(), out.end());
  return out;
}

struct PeerSnapshot {
  std::vector<std::pair<uint32_t, uint64_t>> applied;
  std::vector<std::pair<uint32_t, uint64_t>> rejected;
  bool operator==(const PeerSnapshot&) const = default;
};

struct ChurnRow {
  uint64_t seed = 0;  // 0 = churn-free baseline
  size_t replication_factor = 3;
  bool ok = false;
  bool matches_baseline = false;
  std::string error;
  sim::CdssResult result;
  std::vector<PeerSnapshot> peers;
};

sim::CdssConfig ChurnSweepConfig() {
  sim::CdssConfig cfg;
  cfg.participants = 25;
  cfg.store = sim::StoreKind::kDht;
  cfg.rounds = 8;
  cfg.txns_between_recons = 2;
  cfg.replication_factor = 3;
  return cfg;
}

ChurnRow RunChurnLeg(uint64_t churn_seed, size_t replication_factor) {
  ChurnRow row;
  row.seed = churn_seed;
  row.replication_factor = replication_factor;
  sim::CdssConfig cfg = ChurnSweepConfig();
  cfg.replication_factor = replication_factor;
  if (churn_seed != 0) {
    cfg.churn.enabled = true;
    cfg.churn.seed = churn_seed;
    cfg.churn.crash_probability = 0.04;
    cfg.churn.join_probability = 0.6;
    cfg.churn.leave_probability = 0.25;
    cfg.churn.min_live_nodes = 8;
  }
  auto cdss = sim::Cdss::Make(cfg);
  if (!cdss.ok()) {
    row.error = cdss.status().ToString();
    return row;
  }
  auto result = (*cdss)->Run();
  if (!result.ok()) {
    row.error = result.status().ToString();
    return row;
  }
  row.ok = true;
  row.result = *result;
  for (size_t i = 0; i < (*cdss)->participant_count(); ++i) {
    const core::Participant& p = (*cdss)->participant(i);
    row.peers.push_back(
        PeerSnapshot{SortedIds(p.applied()), SortedIds(p.rejected())});
  }
  return row;
}

bool RunChurnSweep() {
  const char* flag = std::getenv("ORCH_CHURN_SWEEP");
  if (flag == nullptr || flag[0] == '\0' || flag[0] == '0') return false;
  const std::map<std::string, int64_t> sweep_start =
      MetricsRegistry::Global().CounterValues();

  const uint64_t kSeeds[] = {11, 12, 13};
  std::vector<ChurnRow> rows;
  bool all_ok = true;

  const ChurnRow baseline = RunChurnLeg(0, 3);
  all_ok = all_ok && baseline.ok;
  rows.push_back(baseline);
  for (uint64_t seed : kSeeds) {
    ChurnRow row = RunChurnLeg(seed, 3);
    if (row.ok && baseline.ok) {
      row.matches_baseline =
          row.peers == baseline.peers &&
          row.result.state_ratio == baseline.result.state_ratio;
    }
    // The schedule itself must be substantial, and the replica-placement
    // invariant must have held after every single event.
    const bool schedule_ok = row.result.node_crashes >= 5 &&
                             row.result.node_joins >= 3 &&
                             row.result.replication_invariant_ok;
    all_ok = all_ok && row.ok && row.matches_baseline && schedule_ok;
    std::printf(
        "churn sweep k=3 seed %llu: %s, %lld crashes, %lld joins, "
        "%lld leaves, invariant %s, %s baseline\n",
        static_cast<unsigned long long>(seed),
        row.ok ? "completed" : row.error.c_str(),
        static_cast<long long>(row.result.node_crashes),
        static_cast<long long>(row.result.node_joins),
        static_cast<long long>(row.result.node_leaves),
        row.result.replication_invariant_ok ? "held" : "VIOLATED",
        row.matches_baseline ? "matches" : "DIVERGES FROM");
    rows.push_back(std::move(row));
  }

  // Control: replication off. The same churn must now visibly lose data,
  // either as a hard error (a transaction controller's only copy died)
  // or as decisions diverging from the baseline.
  ChurnRow control = RunChurnLeg(kSeeds[0], 1);
  control.matches_baseline =
      control.ok && baseline.ok && control.peers == baseline.peers &&
      control.result.state_ratio == baseline.result.state_ratio;
  const bool data_lost = !control.ok || !control.matches_baseline;
  all_ok = all_ok && data_lost;
  std::printf("churn sweep k=1 seed %llu (control): %s — %s\n",
              static_cast<unsigned long long>(control.seed),
              control.ok ? "completed" : control.error.c_str(),
              data_lost ? "data lost as expected (replication is load-bearing)"
                        : "NO DATA LOST (replication not exercised)");
  rows.push_back(std::move(control));

  const char* path = std::getenv("ORCH_CHURN_SWEEP_JSON");
  if (path == nullptr) path = "BENCH_churn_sweep.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return true;
  }
  std::fprintf(f, "{\n  \"bench\": \"churn_sweep\",\n");
  std::fprintf(f, "  \"participants\": 25,\n  \"rounds\": 8,\n");
  std::fprintf(f, "  \"all_checks_pass\": %s,\n", all_ok ? "true" : "false");
  std::fprintf(f, "  \"k1_control_lost_data\": %s,\n",
               data_lost ? "true" : "false");
  WriteMetricsBlock(f, CounterDeltas(sweep_start,
                                     MetricsRegistry::Global().CounterValues()));
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const ChurnRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"seed\": %llu, \"replication_factor\": %zu, "
        "\"completed\": %s, \"crashes\": %lld, \"joins\": %lld, "
        "\"leaves\": %lld, \"invariant_held\": %s, \"accepted\": %zu, "
        "\"deferred\": %zu, \"state_ratio\": %.6f, "
        "\"matches_baseline\": %s%s%s}%s\n",
        static_cast<unsigned long long>(r.seed), r.replication_factor,
        r.ok ? "true" : "false",
        static_cast<long long>(r.result.node_crashes),
        static_cast<long long>(r.result.node_joins),
        static_cast<long long>(r.result.node_leaves),
        r.result.replication_invariant_ok ? "true" : "false",
        r.result.accepted, r.result.deferred, r.result.state_ratio,
        r.seed == 0 ? "true" : (r.matches_baseline ? "true" : "false"),
        r.error.empty() ? "" : ", \"error\": \"",
        r.error.empty() ? "" : (r.error + "\"").c_str(),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("churn sweep written to %s (%s)\n", path,
              all_ok ? "all checks pass" : "CHECK FAILED");
  return true;
}

// --- Delta-fetch sweep (ORCH_DELTA_SWEEP=1). ---
//
// The perf claim under test: with the fetch cache and delta windows
// (core::FetchMode::kDelta) a steady-state reconciliation round costs
// O(new work) instead of O(history) — the store stops re-scanning and
// re-decoding every epoch since the beginning of time, and the DHT stops
// re-requesting every published transaction id over the ring. Both modes
// must produce bit-identical per-peer decisions; only costs move.
//
// Each leg drives the rounds manually through StepParticipant so it can
// attribute wall time and message/byte deltas to individual rounds. The
// headline is the steady-state round time (mean of the last half of the
// rounds, where kFull's per-round cost has grown to its largest) for
// delta vs the kFull reference, which runs the same pipeline with its
// window pinned at epoch 0 and its soft state bypassed.

struct DeltaRow {
  std::string store;  // "central" | "dht"
  core::FetchMode mode = core::FetchMode::kDelta;
  bool ok = false;
  std::string error;
  std::vector<int64_t> round_wall_us;    // wall time per round, all peers
  std::vector<int64_t> round_local_us;   // participant-side reconcile time
  std::vector<int64_t> round_store_us;   // store-side simulated + CPU time
  std::vector<int64_t> round_messages;   // store messages per round
  double steady_wall_us = 0;             // mean of the last half of rounds
  double steady_sim_us = 0;              // local + simulated store time
  double steady_messages = 0;
  int64_t total_messages = 0;
  int64_t total_bytes = 0;
  core::FetchStats fetch;                // summed over every reconciliation
  std::vector<PeerSnapshot> peers;
  bool matches_full = true;  // decisions identical to the kFull leg
};

constexpr size_t kDeltaPeers = 16;
constexpr size_t kDeltaRounds = 64;
constexpr size_t kDeltaTxnsPerRound = 2;
// The central headline is a wall-time ratio, so one pair of legs is one
// noisy sample: it is the median of this many interleaved full/delta
// pairs.
constexpr size_t kCentralSpeedupPairs = 5;

DeltaRow RunDeltaLeg(sim::StoreKind kind, core::FetchMode mode) {
  DeltaRow row;
  row.store = kind == sim::StoreKind::kCentral ? "central" : "dht";
  row.mode = mode;
  sim::CdssConfig cfg;
  cfg.participants = kDeltaPeers;
  cfg.store = kind;
  cfg.rounds = kDeltaRounds;
  cfg.txns_between_recons = kDeltaTxnsPerRound;
  cfg.fetch_mode = mode;
  auto cdss = sim::Cdss::Make(cfg);
  if (!cdss.ok()) {
    row.error = cdss.status().ToString();
    return row;
  }
  const auto summed_stats = [&] {
    core::StoreStats total;
    for (size_t i = 0; i < kDeltaPeers; ++i) {
      total = total + (*cdss)->store().StatsFor(
                          static_cast<core::ParticipantId>(i));
    }
    return total;
  };
  for (size_t round = 0; round < kDeltaRounds; ++round) {
    const core::StoreStats before = summed_stats();
    Stopwatch clock;
    int64_t local_us = 0;
    for (size_t i = 0; i < kDeltaPeers; ++i) {
      auto report = (*cdss)->StepParticipant(i);
      if (!report.ok()) {
        row.error = report.status().ToString();
        return row;
      }
      row.fetch += report->fetch_stats;
      local_us += report->local_micros;
    }
    row.round_wall_us.push_back(clock.ElapsedMicros());
    row.round_local_us.push_back(local_us);
    const core::StoreStats after = summed_stats();
    row.round_messages.push_back((after - before).messages);
    row.round_store_us.push_back((after - before).TotalStoreMicros());
  }
  const core::StoreStats total = summed_stats();
  row.total_messages = total.messages;
  row.total_bytes = total.bytes;
  const size_t half = kDeltaRounds / 2;
  for (size_t r = half; r < kDeltaRounds; ++r) {
    row.steady_wall_us += static_cast<double>(row.round_wall_us[r]);
    row.steady_sim_us +=
        static_cast<double>(row.round_local_us[r] + row.round_store_us[r]);
    row.steady_messages += static_cast<double>(row.round_messages[r]);
  }
  row.steady_wall_us /= static_cast<double>(kDeltaRounds - half);
  row.steady_sim_us /= static_cast<double>(kDeltaRounds - half);
  row.steady_messages /= static_cast<double>(kDeltaRounds - half);
  for (size_t i = 0; i < (*cdss)->participant_count(); ++i) {
    const core::Participant& p = (*cdss)->participant(i);
    row.peers.push_back(
        PeerSnapshot{SortedIds(p.applied()), SortedIds(p.rejected())});
  }
  row.ok = true;
  return row;
}

void PrintDeltaRowJson(std::FILE* f, const DeltaRow& r, bool last) {
  std::fprintf(f,
               "    {\"store\": \"%s\", \"mode\": \"%s\", "
               "\"completed\": %s,\n",
               r.store.c_str(),
               std::string(core::FetchModeName(r.mode)).c_str(),
               r.ok ? "true" : "false");
  if (!r.error.empty()) {
    std::fprintf(f, "     \"error\": \"%s\",\n", r.error.c_str());
  }
  std::fprintf(f, "     \"round_wall_us\": [");
  for (size_t i = 0; i < r.round_wall_us.size(); ++i) {
    std::fprintf(f, "%s%lld", i ? ", " : "",
                 static_cast<long long>(r.round_wall_us[i]));
  }
  std::fprintf(f, "],\n     \"round_local_us\": [");
  for (size_t i = 0; i < r.round_local_us.size(); ++i) {
    std::fprintf(f, "%s%lld", i ? ", " : "",
                 static_cast<long long>(r.round_local_us[i]));
  }
  std::fprintf(f, "],\n     \"round_store_sim_us\": [");
  for (size_t i = 0; i < r.round_store_us.size(); ++i) {
    std::fprintf(f, "%s%lld", i ? ", " : "",
                 static_cast<long long>(r.round_store_us[i]));
  }
  std::fprintf(f, "],\n     \"round_messages\": [");
  for (size_t i = 0; i < r.round_messages.size(); ++i) {
    std::fprintf(f, "%s%lld", i ? ", " : "",
                 static_cast<long long>(r.round_messages[i]));
  }
  std::fprintf(f,
               "],\n     \"steady_state_wall_us\": %.1f, "
               "\"steady_state_sim_us\": %.1f, "
               "\"steady_state_messages\": %.1f,\n",
               r.steady_wall_us, r.steady_sim_us, r.steady_messages);
  std::fprintf(f,
               "     \"total_messages\": %lld, \"total_bytes\": %lld,\n",
               static_cast<long long>(r.total_messages),
               static_cast<long long>(r.total_bytes));
  std::fprintf(f,
               "     \"decoded\": %lld, \"cache_hits\": %lld, "
               "\"suppressed_lookups\": %lld, \"batched_messages\": %lld,\n",
               static_cast<long long>(r.fetch.decoded),
               static_cast<long long>(r.fetch.cache_hits),
               static_cast<long long>(r.fetch.suppressed_lookups),
               static_cast<long long>(r.fetch.batched_messages));
  std::fprintf(f, "     \"matches_full_baseline\": %s}%s\n",
               r.matches_full ? "true" : "false", last ? "" : ",");
}

bool RunDeltaSweep() {
  const char* flag = std::getenv("ORCH_DELTA_SWEEP");
  if (flag == nullptr || flag[0] == '\0' || flag[0] == '0') return false;
  const std::map<std::string, int64_t> sweep_start =
      MetricsRegistry::Global().CounterValues();

  const core::FetchMode kModes[] = {core::FetchMode::kFull,
                                    core::FetchMode::kDelta};
  std::vector<DeltaRow> rows;
  bool all_ok = true;
  double dht_speedup = 0, dht_msg_reduction = 0;
  std::vector<double> central_ratios;  // one per interleaved pair
  bool dht_delta_cheaper = false;

  for (sim::StoreKind kind : {sim::StoreKind::kCentral, sim::StoreKind::kDht}) {
    std::vector<DeltaRow> store_rows;
    for (core::FetchMode mode : kModes) {
      DeltaRow row = RunDeltaLeg(kind, mode);
      all_ok = all_ok && row.ok;
      store_rows.push_back(std::move(row));
    }
    const DeltaRow& baseline = store_rows[0];  // kFull
    for (DeltaRow& row : store_rows) {
      row.matches_full =
          row.ok && baseline.ok && row.peers == baseline.peers;
      all_ok = all_ok && row.matches_full;
      int64_t steady_local = 0;
      const size_t half = row.round_wall_us.size() / 2;
      for (size_t r = half; r < row.round_wall_us.size(); ++r) {
        steady_local += row.round_local_us[r];
      }
      std::printf(
          "delta sweep %s/%s: %s, steady round %.0f us wall / %.0f us "
          "simulated (local %lld us), %.0f msgs "
          "(total %lld msgs, decoded %lld, cache hits %lld), %s baseline\n",
          row.store.c_str(), std::string(core::FetchModeName(row.mode)).c_str(),
          row.ok ? "completed" : row.error.c_str(), row.steady_wall_us,
          row.steady_sim_us,
          static_cast<long long>(
              half ? steady_local /
                         static_cast<int64_t>(row.round_wall_us.size() - half)
                   : 0),
          row.steady_messages, static_cast<long long>(row.total_messages),
          static_cast<long long>(row.fetch.decoded),
          static_cast<long long>(row.fetch.cache_hits),
          row.matches_full ? "matches" : "DIVERGES FROM");
    }
    // Each store's headline is measured in its binding resource. The
    // central store's fetch cost is server CPU — the per-procedure RPC
    // overhead the simulator charges is identical across modes, so wall
    // time is what the delta path can move. The DHT's fetch cost is
    // network messages, whose latency the harness charges to the
    // simulated clock (common/clock.h), so its round latency is local
    // wall plus simulated store time.
    const DeltaRow& d = store_rows[1];  // kDelta
    if (kind == sim::StoreKind::kCentral) {
      central_ratios.push_back(
          d.steady_wall_us > 0 ? baseline.steady_wall_us / d.steady_wall_us
                               : 0);
    } else {
      dht_speedup =
          d.steady_sim_us > 0 ? baseline.steady_sim_us / d.steady_sim_us : 0;
      dht_msg_reduction = d.steady_messages > 0
                              ? baseline.steady_messages / d.steady_messages
                              : 0;
      dht_delta_cheaper = d.steady_messages < baseline.steady_messages &&
                          d.steady_sim_us < baseline.steady_sim_us;
    }
    for (DeltaRow& row : store_rows) rows.push_back(std::move(row));
  }
  // Every count the baseline diff pins was measured above; the remaining
  // central pairs only add wall-time samples, so the metrics window
  // closes here. They alternate which leg goes first, so host drift
  // lands inside a pair rather than between the series, and each leg
  // must still decide exactly as the first kFull leg did.
  const std::map<std::string, int64_t> sweep_end =
      MetricsRegistry::Global().CounterValues();
  const std::vector<PeerSnapshot>& central_decisions = rows[0].peers;
  for (size_t pair = 1; pair < kCentralSpeedupPairs; ++pair) {
    const bool delta_first = pair % 2 == 1;
    const DeltaRow first = RunDeltaLeg(
        sim::StoreKind::kCentral,
        delta_first ? core::FetchMode::kDelta : core::FetchMode::kFull);
    const DeltaRow second = RunDeltaLeg(
        sim::StoreKind::kCentral,
        delta_first ? core::FetchMode::kFull : core::FetchMode::kDelta);
    const DeltaRow& full = delta_first ? second : first;
    const DeltaRow& delta = delta_first ? first : second;
    all_ok = all_ok && full.ok && delta.ok &&
             full.peers == central_decisions &&
             delta.peers == central_decisions;
    central_ratios.push_back(
        delta.steady_wall_us > 0 ? full.steady_wall_us / delta.steady_wall_us
                                 : 0);
  }
  std::vector<double> sorted_ratios = central_ratios;
  std::sort(sorted_ratios.begin(), sorted_ratios.end());
  const double central_speedup = Quantile(sorted_ratios, 0.5);
  const double central_iqr =
      Quantile(sorted_ratios, 0.75) - Quantile(sorted_ratios, 0.25);

  // Acceptance, each store in its binding resource: central delta
  // steady-state rounds at least 3x faster in wall time than the kFull
  // reference (median over the pairs), and DHT delta rounds strictly
  // cheaper than the reference in both steady-state messages and
  // simulated latency. The DHT gate is strict rather than a ratio
  // because both modes share the multi-get path, so the gap is only the
  // window and the suppressed lookups; its deterministic costs are
  // pinned exactly by the baseline diff.
  all_ok = all_ok && central_speedup >= 3.0 && dht_delta_cheaper;
  std::printf(
      "delta sweep: central %.1fx (wall, median of %zu pairs, IQR %.2f), "
      "dht %.1fx (simulated latency) steady-state speedup vs full; dht "
      "steady-state message reduction %.1fx\n",
      central_speedup, central_ratios.size(), central_iqr, dht_speedup,
      dht_msg_reduction);

  const char* path = std::getenv("ORCH_DELTA_SWEEP_JSON");
  if (path == nullptr) path = "BENCH_delta_sweep.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return true;
  }
  std::fprintf(f, "{\n  \"bench\": \"delta_sweep\",\n");
  std::fprintf(f,
               "  \"participants\": %zu,\n  \"rounds\": %zu,\n"
               "  \"txns_between_recons\": %zu,\n",
               kDeltaPeers, kDeltaRounds, kDeltaTxnsPerRound);
  std::fprintf(f, "  \"all_checks_pass\": %s,\n", all_ok ? "true" : "false");
  std::fprintf(f,
               "  \"central_speedup_delta_vs_full\": %.2f,\n"
               "  \"central_speedup_iqr\": %.2f,\n"
               "  \"central_speedup_pairs\": %zu,\n"
               "  \"central_speedup_metric\": \"steady_state_wall_us\",\n"
               "  \"dht_speedup_delta_vs_full\": %.2f,\n"
               "  \"dht_speedup_metric\": \"steady_state_sim_us\",\n"
               "  \"dht_message_reduction_delta_vs_full\": %.2f,\n",
               central_speedup, central_iqr, central_ratios.size(),
               dht_speedup, dht_msg_reduction);
  std::fprintf(f, "  \"central_speedup_per_pair\": [");
  for (size_t i = 0; i < central_ratios.size(); ++i) {
    std::fprintf(f, "%s%.2f", i ? ", " : "", central_ratios[i]);
  }
  std::fprintf(f, "],\n");
  WriteMetricsBlock(f, CounterDeltas(sweep_start, sweep_end));
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    PrintDeltaRowJson(f, rows[i], i + 1 == rows.size());
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("delta sweep written to %s (%s)\n", path,
              all_ok ? "all checks pass" : "CHECK FAILED");
  return true;
}

// --- Corruption sweep (ORCH_CORRUPTION_SWEEP=1). ---
//
// The integrity claim under test: with checksummed storage and wire
// formats, silent corruption anywhere in the system is *detected* and
// *absorbed* — decisions stay bit-identical to a corruption-free run
// and not a single rotten byte reaches a reader unverified. The control
// leg disables verification over the same corruption schedule and must
// visibly consume rot, proving the envelopes (not luck) carry the claim.

constexpr double kCorruptionProbability = 0.005;
const char* const kCorruptionSites[] = {
    "storage.bit_flip", "storage.torn_write", "storage.truncate_tail",
    "net.payload_corrupt"};

struct CorruptionRow {
  std::string store;
  uint64_t seed = 0;  // 0 = corruption-free baseline
  bool verify = true;
  std::string mode;
  bool ok = false;
  bool matches_baseline = false;
  std::string error;
  int64_t corrupted_buffers = 0;  // injector-side: buffers actually mutated
  sim::CdssResult result;
  std::vector<PeerSnapshot> peers;
};

CorruptionRow RunCorruptionLeg(sim::StoreKind kind, uint64_t seed,
                               bool verify, core::FetchMode mode) {
  CorruptionRow row;
  row.store = kind == sim::StoreKind::kCentral ? "central" : "dht";
  row.seed = seed;
  row.verify = verify;
  row.mode = std::string(core::FetchModeName(mode));
  sim::CdssConfig cfg = SweepConfig(kind);
  cfg.fetch_mode = mode;
  cfg.verify_checksums = verify;
  if (kind == sim::StoreKind::kDht) cfg.scrub_interval_rounds = 2;
  if (seed != 0) {
    cfg.fault.corruption_probability = kCorruptionProbability;
    cfg.fault.seed = seed;
    for (const char* site : kCorruptionSites) {
      cfg.fault.corruption_sites.emplace_back(site);
    }
  }
  auto cdss = sim::Cdss::Make(cfg);
  if (!cdss.ok()) {
    row.error = cdss.status().ToString();
    return row;
  }
  auto result = (*cdss)->Run();
  row.corrupted_buffers = (*cdss)->fault_injector().corrupted();
  if (!result.ok()) {
    row.error = result.status().ToString();
    return row;
  }
  row.ok = true;
  row.result = *result;
  for (size_t i = 0; i < (*cdss)->participant_count(); ++i) {
    const core::Participant& p = (*cdss)->participant(i);
    row.peers.push_back(
        PeerSnapshot{SortedIds(p.applied()), SortedIds(p.rejected())});
  }
  return row;
}

// Standalone WAL recovery leg: append a record stream with one
// corruption site armed, replay, and require that every delivered
// record is byte-identical to one of the appended records *in order*
// (i.e. recovery may lose damaged records — with the loss accounted —
// but must never deliver tampered bytes as if they were valid).
struct WalLeg {
  std::string site;
  uint64_t seed = 0;
  bool ok = false;
  bool clean_subsequence = false;
  int64_t corrupted_buffers = 0;
  int64_t appended = 0;
  std::string error;
  storage::WriteAheadLog::ReplayStats stats;
};

WalLeg RunWalLeg(const std::string& site, uint64_t seed) {
  constexpr int kWalRecords = 200;
  WalLeg leg;
  leg.site = site;
  leg.seed = seed;
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("orch_corruption_wal_" + site + "_" + std::to_string(seed) + "_" +
        std::to_string(::getpid())))
          .string();
  std::remove(path.c_str());
  FaultInjector injector;
  FaultInjectorConfig fcfg;
  // Write-side sites draw once per append; read-side sites draw once
  // per replay. Arm the read-side ones at certainty so one replay is
  // guaranteed to exercise the recovery path.
  fcfg.corruption_probability = site == "storage.torn_write" ? 0.05 : 1.0;
  fcfg.seed = seed;
  fcfg.corruption_sites = {site};
  injector.Configure(fcfg);

  std::vector<std::pair<uint8_t, std::string>> appended;
  {
    auto wal = storage::WriteAheadLog::Open(path);
    if (!wal.ok()) {
      leg.error = wal.status().ToString();
      return leg;
    }
    (*wal)->set_fault_injector(site == "storage.torn_write" ? &injector
                                                            : nullptr);
    for (int i = 0; i < kWalRecords; ++i) {
      const uint8_t type = static_cast<uint8_t>(1 + i % 5);
      std::string payload = "record-" + std::to_string(i) +
                            std::string(static_cast<size_t>(i % 17), 'x');
      if (Status s = (*wal)->Append(type, payload); !s.ok()) {
        leg.error = s.ToString();
        return leg;
      }
      appended.emplace_back(type, std::move(payload));
    }
    if (Status s = (*wal)->Sync(); !s.ok()) {
      leg.error = s.ToString();
      return leg;
    }
  }
  leg.appended = kWalRecords;

  auto wal = storage::WriteAheadLog::Open(path);
  if (!wal.ok()) {
    leg.error = wal.status().ToString();
    return leg;
  }
  if (site != "storage.torn_write") (*wal)->set_fault_injector(&injector);
  std::vector<std::pair<uint8_t, std::string>> delivered;
  Status replay = (*wal)->ReplayWithStats(
      [&](uint8_t type, std::string_view payload) {
        delivered.emplace_back(type, std::string(payload));
        return Status::OK();
      },
      &leg.stats);
  std::remove(path.c_str());
  if (!replay.ok()) {
    leg.error = replay.ToString();
    return leg;
  }
  leg.ok = true;
  leg.corrupted_buffers = injector.corrupted();
  // Ordered-subsequence check: scan the appended stream for each
  // delivered record in turn.
  size_t cursor = 0;
  bool clean = true;
  for (const auto& rec : delivered) {
    while (cursor < appended.size() && appended[cursor] != rec) ++cursor;
    if (cursor == appended.size()) {
      clean = false;  // a delivered record matches nothing we wrote
      break;
    }
    ++cursor;
  }
  leg.clean_subsequence = clean;
  return leg;
}

bool RunCorruptionSweep() {
  const char* flag = std::getenv("ORCH_CORRUPTION_SWEEP");
  if (flag == nullptr || flag[0] == '\0' || flag[0] == '0') return false;
  const std::map<std::string, int64_t> sweep_start =
      MetricsRegistry::Global().CounterValues();

  const uint64_t kSeeds[] = {1, 2, 3};
  std::vector<CorruptionRow> rows;
  bool all_ok = true;
  int64_t total_detected = 0;
  int64_t total_repairs = 0;

  CorruptionRow dht_baseline;  // the control leg compares against this
  for (sim::StoreKind kind : {sim::StoreKind::kCentral, sim::StoreKind::kDht}) {
    const CorruptionRow baseline =
        RunCorruptionLeg(kind, 0, true, core::FetchMode::kDelta);
    all_ok = all_ok && baseline.ok;
    rows.push_back(baseline);
    if (kind == sim::StoreKind::kDht) dht_baseline = baseline;
    auto check = [&](CorruptionRow row) {
      if (row.ok && baseline.ok) {
        row.matches_baseline =
            row.peers == baseline.peers &&
            row.result.state_ratio == baseline.result.state_ratio;
      }
      // The headline assertions: decisions bit-identical, zero rotten
      // bytes served unverified.
      all_ok = all_ok && row.ok && row.matches_baseline &&
               row.result.undetected_corrupt_reads == 0;
      total_detected += row.result.corrupt_reads_detected;
      total_repairs += row.result.read_repairs;
      std::printf(
          "corruption sweep %-7s %-8s seed %llu: %s, %lld buffers "
          "corrupted, %lld detected, %lld repairs, %lld undetected, "
          "%s baseline\n",
          row.store.c_str(), row.mode.c_str(),
          static_cast<unsigned long long>(row.seed),
          row.ok ? "completed" : row.error.c_str(),
          static_cast<long long>(row.corrupted_buffers),
          static_cast<long long>(row.result.corrupt_reads_detected),
          static_cast<long long>(row.result.read_repairs),
          static_cast<long long>(row.result.undetected_corrupt_reads),
          row.matches_baseline ? "matches" : "DIVERGES FROM");
      rows.push_back(std::move(row));
    };
    for (uint64_t seed : kSeeds) {
      check(RunCorruptionLeg(kind, seed, true, core::FetchMode::kDelta));
    }
    // One protected kFull leg under the same corruption schedule: the
    // reference re-reads the whole history from the stored rows and
    // replicas every round instead of serving it from soft state (on the
    // central store, the only leg whose fetches read rotten rows).
    check(RunCorruptionLeg(kind, kSeeds[0], true, core::FetchMode::kFull));
  }
  // The sweep is vacuous unless corruption was actually detected (and,
  // on the DHT, healed) somewhere.
  const bool exercised = total_detected > 0 && total_repairs > 0;
  all_ok = all_ok && exercised;

  // Control: same schedule, checksums off (DHT — the store with
  // persistent at-rest rot). Rot must now visibly flow: reads served
  // despite failing checksums, diverging decisions, or a hard error.
  CorruptionRow control =
      RunCorruptionLeg(sim::StoreKind::kDht, kSeeds[0], false,
                       core::FetchMode::kFull);
  if (control.ok && dht_baseline.ok) {
    control.matches_baseline =
        control.peers == dht_baseline.peers &&
        control.result.state_ratio == dht_baseline.result.state_ratio;
  }
  const bool control_consumed_rot =
      !control.ok || !control.matches_baseline ||
      control.result.undetected_corrupt_reads > 0;
  all_ok = all_ok && control_consumed_rot;
  std::printf(
      "corruption sweep control (verify off): %s, %lld undetected reads — "
      "%s\n",
      control.ok ? "completed" : control.error.c_str(),
      static_cast<long long>(control.result.undetected_corrupt_reads),
      control_consumed_rot
          ? "rot consumed as expected (checksums are load-bearing)"
          : "NO ROT CONSUMED (corruption not exercised)");
  rows.push_back(std::move(control));

  // WAL recovery legs: one per storage site, three seeds each.
  std::vector<WalLeg> wal_legs;
  for (const char* site :
       {"storage.torn_write", "storage.truncate_tail", "storage.bit_flip"}) {
    for (uint64_t seed : kSeeds) {
      WalLeg leg = RunWalLeg(site, seed);
      const bool fired = leg.corrupted_buffers > 0;
      all_ok = all_ok && leg.ok && leg.clean_subsequence && fired;
      std::printf(
          "corruption sweep wal %-21s seed %llu: %s, %lld/%lld records, "
          "%lld regions skipped, %lld tail bytes dropped, %s\n",
          site, static_cast<unsigned long long>(seed),
          leg.ok ? "replayed" : leg.error.c_str(),
          static_cast<long long>(leg.stats.records),
          static_cast<long long>(leg.appended),
          static_cast<long long>(leg.stats.skipped_regions),
          static_cast<long long>(leg.stats.dropped_tail_bytes),
          leg.clean_subsequence ? "no tampered record delivered"
                                : "TAMPERED RECORD DELIVERED");
      wal_legs.push_back(std::move(leg));
    }
  }

  const char* path = std::getenv("ORCH_CORRUPTION_SWEEP_JSON");
  if (path == nullptr) path = "BENCH_corruption_sweep.json";
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return true;
  }
  std::fprintf(f, "{\n  \"bench\": \"corruption_sweep\",\n");
  std::fprintf(f, "  \"corruption_probability\": %.3f,\n",
               kCorruptionProbability);
  std::fprintf(f, "  \"all_checks_pass\": %s,\n", all_ok ? "true" : "false");
  std::fprintf(f, "  \"corruption_exercised\": %s,\n",
               exercised ? "true" : "false");
  std::fprintf(f, "  \"control_consumed_rot\": %s,\n",
               control_consumed_rot ? "true" : "false");
  WriteMetricsBlock(f, CounterDeltas(sweep_start,
                                     MetricsRegistry::Global().CounterValues()));
  std::fprintf(f, "  \"runs\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const CorruptionRow& r = rows[i];
    std::fprintf(
        f,
        "    {\"store\": \"%s\", \"mode\": \"%s\", \"seed\": %llu, "
        "\"verify_checksums\": %s, \"completed\": %s, "
        "\"corrupted_buffers\": %lld, \"detected\": %lld, "
        "\"repairs\": %lld, \"undetected\": %lld, \"accepted\": %zu, "
        "\"deferred\": %zu, \"state_ratio\": %.6f, "
        "\"matches_baseline\": %s}%s\n",
        r.store.c_str(), r.mode.c_str(),
        static_cast<unsigned long long>(r.seed), r.verify ? "true" : "false",
        r.ok ? "true" : "false",
        static_cast<long long>(r.corrupted_buffers),
        static_cast<long long>(r.result.corrupt_reads_detected),
        static_cast<long long>(r.result.read_repairs),
        static_cast<long long>(r.result.undetected_corrupt_reads),
        r.result.accepted, r.result.deferred, r.result.state_ratio,
        r.seed == 0 ? "true" : (r.matches_baseline ? "true" : "false"),
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"wal_legs\": [\n");
  for (size_t i = 0; i < wal_legs.size(); ++i) {
    const WalLeg& l = wal_legs[i];
    std::fprintf(
        f,
        "    {\"site\": \"%s\", \"seed\": %llu, \"replayed\": %s, "
        "\"appended\": %lld, \"recovered\": %lld, "
        "\"skipped_regions\": %lld, \"skipped_bytes\": %lld, "
        "\"dropped_tail_bytes\": %lld, \"corrupted_buffers\": %lld, "
        "\"clean_subsequence\": %s}%s\n",
        l.site.c_str(), static_cast<unsigned long long>(l.seed),
        l.ok ? "true" : "false", static_cast<long long>(l.appended),
        static_cast<long long>(l.stats.records),
        static_cast<long long>(l.stats.skipped_regions),
        static_cast<long long>(l.stats.skipped_bytes),
        static_cast<long long>(l.stats.dropped_tail_bytes),
        static_cast<long long>(l.corrupted_buffers),
        l.clean_subsequence ? "true" : "false",
        i + 1 < wal_legs.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("corruption sweep written to %s (%s)\n", path,
              all_ok ? "all checks pass" : "CHECK FAILED");
  return true;
}

// The same workload as a google-benchmark, so
// `--benchmark_filter=ReconcileStudy` tracks it interactively.
void BM_ReconcileStudy(benchmark::State& state) {
  static const StudyWorkload& w = *new StudyWorkload(
      MakeStudyWorkload(8, static_cast<size_t>(64)));
  const core::Reconciler rec(&ProteinCatalog());
  for (auto _ : state) {
    benchmark::DoNotOptimize(RunStudyOnce(w, rec, false));
  }
}
BENCHMARK(BM_ReconcileStudy)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  if (RunFaultSweep()) return 0;
  if (RunChurnSweep()) return 0;
  if (RunDeltaSweep()) return 0;
  if (RunCorruptionSweep()) return 0;
  RunReconcileStudy();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
