// `orch_sweep study`: reconciliation wall time with provenance off vs
// on, over one fixed 512-transaction ReconcileUpdates call.
//
// Workload: `peers` publisher chains of `per_peer` transactions each.
// Transaction t of peer p inserts a unique protein and writes one of
// the peer's two hot proteins, which it shares with the next peer —
// so adjacent chains collide on hot keys (replace/replace and
// insert/insert direct conflicts), extensions grow along each chain
// (flattening work scales with t), and the candidate-pair phase
// dominates, matching the §5.1 profile.
#include <algorithm>
#include <cstdio>

#include "common/check.h"
#include "common/clock.h"
#include "core/reconciler.h"
#include "sweep_harness.h"

namespace orchestra::bench {
namespace {

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

// Mean, median and p95 of one series, as a JSON field.
void WriteSeries(Json& j, std::string_view name, std::vector<int64_t> s) {
  std::sort(s.begin(), s.end());
  double mean = 0;
  for (const int64_t v : s) mean += static_cast<double>(v);
  mean /= static_cast<double>(s.size());
  std::printf("micro_reconcile study %-13s mean %10.1f us\n",
              std::string(name).c_str(), mean);
  j.Key(name).Begin('{').Field("mean_us", mean, 1);
  j.Field("p50_us", s[s.size() / 2])
      .Field("p95_us", s[std::min(s.size() - 1, (s.size() * 95 + 99) / 100)])
      .Close();
}

}  // namespace

bool RunStudy(Json& j) {
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

  j.Begin('{', true).Field("bench", "micro_reconcile");
  j.Field("transactions", kPeers * kPerPeer).Field("repetitions", kReps);
  j.Key("series").Begin('{', true);
  WriteSeries(j, "serial", std::move(serial));
  WriteSeries(j, "provenance_on", std::move(provenance));
  j.Close();
  // Wall-time derived, so stripped before the baseline diff; the 5%
  // budget is printed, not gated.
  j.Field("provenance_overhead_pct", median_pct, 1)
      .Field("provenance_overhead_iqr_pct", iqr_pct, 1)
      .Close();
  std::printf(
      "micro_reconcile provenance overhead: %.1f%% (IQR %.1f%%, budget 5%%)\n",
      median_pct, iqr_pct);
  return true;
}

}  // namespace orchestra::bench
