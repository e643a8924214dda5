// Reproduces Figure 10: total reconciliation time per participant for
// reconciliation intervals RI ∈ {4, 20, 50}, central vs. distributed
// store, split into store time and local time (§6.2). Store time is
// reported under both time models of one run: stop-and-wait (every
// message charged after the previous one, as the paper's prototype paid
// it) and scatter-gather (the shipped DHT client, whose independent
// messages overlap). Expected shape: the central store gets cheaper as RI
// grows (fewer round-trip-dominated reconciliations). Under stop-and-wait
// the paper's crossover is checked: the distributed store is cheaper than
// the central store at RI 4 and dearer at RI 50. Under scatter-gather the
// distributed store pays a smaller penalty for frequent reconciliation
// than the central store. The shape checks are computed from the table.
#include <cstdio>
#include <map>
#include <vector>

#include "sim/experiment.h"

int main() {
  using namespace orchestra::sim;
  constexpr size_t kTrials = 3;
  constexpr size_t kTotalTxnsPerPeer = 100;
  std::printf("Figure 10: total reconciliation time per participant\n");
  std::printf("(10 peers, txn size 1, %zu txns per peer per run, "
              "%zu trials)\n\n",
              kTotalTxnsPerPeer, kTrials);
  TablePrinter table({"RI", "Store", "Stop-and-wait store (s)",
                      "Scatter-gather store (s)", "Local time (s)",
                      "Stop-and-wait total (s)", "Scatter-gather total (s)",
                      "Msgs/recon"});
  // Per store, in RI order: total seconds under each time model.
  std::map<StoreKind, std::vector<double>> wait_totals;
  std::map<StoreKind, std::vector<double>> totals;
  for (size_t interval : {4, 20, 50}) {
    for (StoreKind kind : {StoreKind::kCentral, StoreKind::kDht}) {
      CdssConfig config;
      config.participants = 10;
      config.store = kind;
      config.transaction_size = 1;
      config.txns_between_recons = interval;
      config.rounds = kTotalTxnsPerPeer / interval;
      auto agg = RunTrials(config, kTrials);
      if (!agg.ok()) {
        std::fprintf(stderr, "trial failed: %s\n",
                     agg.status().ToString().c_str());
        return 1;
      }
      const double wait_store_s = agg->total_store_wire_micros_pp.mean / 1e6;
      const double store_s = agg->total_store_micros_pp.mean / 1e6;
      const double local_s = agg->total_local_micros_pp.mean / 1e6;
      const double recons =
          static_cast<double>(config.rounds * config.participants);
      table.Row({std::to_string(interval),
                 kind == StoreKind::kCentral ? "central" : "distributed",
                 Fmt(wait_store_s, 3), Fmt(store_s, 3), Fmt(local_s, 3),
                 Fmt(wait_store_s + local_s, 3), Fmt(store_s + local_s, 3),
                 Fmt(agg->messages / recons, 1)});
      wait_totals[kind].push_back(wait_store_s + local_s);
      totals[kind].push_back(store_s + local_s);
    }
  }
  const std::vector<double>& central = totals[StoreKind::kCentral];
  const std::vector<double>& dht = totals[StoreKind::kDht];
  bool central_drops = true;
  for (size_t i = 1; i < central.size(); ++i) {
    central_drops = central_drops && central[i] < central[i - 1];
  }
  // The penalty for reconciling often: total at RI 4 over total at RI 50.
  const double central_penalty = central.front() / central.back();
  const double dht_penalty = dht.front() / dht.back();
  // The crossover: distributed over central, at RI 4 and at RI 50.
  const std::vector<double>& wait_central = wait_totals[StoreKind::kCentral];
  const std::vector<double>& wait_dht = wait_totals[StoreKind::kDht];
  const double ratio_ri4 = wait_dht.front() / wait_central.front();
  const double ratio_ri50 = wait_dht.back() / wait_central.back();
  const bool crossover = ratio_ri4 < 1.0 && ratio_ri50 > 1.0;
  std::printf(
      "\nPaper shape check, stop-and-wait: the distributed store is "
      "cheaper than the central store at RI 4 and dearer at RI 50: %s "
      "(%.2fx at RI 4, %.2fx at RI 50).\n",
      crossover ? "holds" : "FAILS", ratio_ri4, ratio_ri50);
  std::printf(
      "Paper shape check, scatter-gather: central total drops as RI grows: "
      "%s; the distributed store's penalty for frequent reconciliation (RI "
      "4 vs 50) is smaller than the central store's: %s (%.1fx vs "
      "%.1fx).\n",
      central_drops ? "holds" : "FAILS",
      dht_penalty < central_penalty ? "holds" : "FAILS", dht_penalty,
      central_penalty);
  return crossover && central_drops && dht_penalty < central_penalty ? 0 : 1;
}
