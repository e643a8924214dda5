// Reproduces Figure 12: average time per reconciliation as the number of
// peers grows, for both stores, split into store and local time (§6.3).
// Expected shape: time grows with peer count for both stores (more
// transactions to consider and, for the DHT, more peers to contact), and
// reconciliation remains inexpensive even at 50 peers. The shape check
// is computed from the table; which store pays more store time is
// reported, not asserted (the scatter-gather DHT client pays less than
// the central store's fixed per-procedure overhead).
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "sim/experiment.h"

int main() {
  using namespace orchestra::sim;
  constexpr size_t kTrials = 3;
  std::printf("Figure 12: average time per reconciliation vs. peers\n");
  std::printf("(txn size 1, RI 4, %zu trials)\n\n", kTrials);
  TablePrinter table({"Peers", "Store", "Store time (ms)", "Local time (ms)",
                      "Total (ms)"});
  // Per store, in peer order: (store ms, total ms).
  std::map<StoreKind, std::vector<std::pair<double, double>>> curves;
  for (size_t peers : {10, 25, 50}) {
    for (StoreKind kind : {StoreKind::kCentral, StoreKind::kDht}) {
      CdssConfig config;
      config.participants = peers;
      config.store = kind;
      config.transaction_size = 1;
      config.txns_between_recons = 4;
      config.rounds = 4;
      auto agg = RunTrials(config, kTrials);
      if (!agg.ok()) {
        std::fprintf(stderr, "trial failed: %s\n",
                     agg.status().ToString().c_str());
        return 1;
      }
      const double store_ms = agg->avg_store_micros.mean / 1e3;
      const double local_ms = agg->avg_local_micros.mean / 1e3;
      table.Row({std::to_string(peers),
                 kind == StoreKind::kCentral ? "central" : "distributed",
                 Fmt(store_ms, 2), Fmt(local_ms, 2),
                 Fmt(store_ms + local_ms, 2)});
      curves[kind].emplace_back(store_ms, store_ms + local_ms);
    }
  }
  // The paper's shape: per-reconciliation time grows with the peer count
  // for both stores, and stays inexpensive (under a second) at 50 peers.
  bool grows = true;
  bool cheap = true;
  for (const auto& [kind, curve] : curves) {
    for (size_t i = 1; i < curve.size(); ++i) {
      grows = grows && curve[i].second > curve[i - 1].second;
    }
    cheap = cheap && curve.back().second < 1000.0;
  }
  const auto& central = curves[StoreKind::kCentral];
  const auto& dht = curves[StoreKind::kDht];
  std::printf(
      "\nPaper shape check: per-reconciliation time grows with peers for "
      "both stores: %s; under 1 s at 50 peers: %s. Distributed store "
      "time is %.2fx the central store's at 10 peers and %.2fx at 50.\n",
      grows ? "holds" : "FAILS", cheap ? "holds" : "FAILS",
      dht.front().first / central.front().first,
      dht.back().first / central.back().first);
  return grows && cheap ? 0 : 1;
}
