// Reproduces Figure 12: average time per reconciliation as the number of
// peers grows, for both stores, split into store and local time (§6.3).
// Expected shape: time grows with peer count for both stores (more
// transactions to consider and, for the DHT, more peers to contact), the
// distributed store being store-time dominated; reconciliation remains
// inexpensive even at 50 peers.
#include <cstdio>

#include "sim/experiment.h"

int main() {
  using namespace orchestra::sim;
  constexpr size_t kTrials = 3;
  std::printf("Figure 12: average time per reconciliation vs. peers\n");
  std::printf("(txn size 1, RI 4, %zu trials)\n\n", kTrials);
  TablePrinter table({"Peers", "Store", "Store time (ms)", "Local time (ms)",
                      "Total (ms)"});
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
    }
  }
  std::printf(
      "\nPaper shape check: per-reconciliation time grows with peers; the "
      "distributed store pays more store time.\n");
  return 0;
}
