// Reproduces Figure 12: average time per reconciliation as the number of
// peers grows, for both stores, split into store and local time (§6.3).
// Store time is reported under both time models of one run: stop-and-wait
// (every message charged after the previous one, as the paper's
// prototype paid it) and scatter-gather (the shipped DHT client, whose
// independent messages overlap). Expected shape: time grows with peer
// count for both stores (more transactions to consider and, for the DHT,
// more peers to contact), and reconciliation remains inexpensive even at
// 50 peers; both are checked under scatter-gather. Under stop-and-wait
// the paper's ordering is checked: the distributed store's cost grows
// faster with peers, and it is the more expensive store from 25 peers
// on. The shape checks are computed from the table.
#include <cstdio>
#include <map>
#include <vector>

#include "sim/experiment.h"

namespace {
/// One store's per-reconciliation times at one peer count (ms).
struct Point {
  double wait_store = 0;  // stop-and-wait store time
  double store = 0;       // scatter-gather store time
  double local = 0;
};
}  // namespace

int main() {
  using namespace orchestra::sim;
  constexpr size_t kTrials = 3;
  std::printf("Figure 12: average time per reconciliation vs. peers\n");
  std::printf("(txn size 1, RI 4, %zu trials)\n\n", kTrials);
  TablePrinter table({"Peers", "Store", "Stop-and-wait store (ms)",
                      "Scatter-gather store (ms)", "Local time (ms)",
                      "Stop-and-wait total (ms)",
                      "Scatter-gather total (ms)"});
  std::map<StoreKind, std::vector<Point>> curves;  // per store, peer order
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
      const Point p{agg->avg_store_wire_micros.mean / 1e3,
                    agg->avg_store_micros.mean / 1e3,
                    agg->avg_local_micros.mean / 1e3};
      table.Row({std::to_string(peers),
                 kind == StoreKind::kCentral ? "central" : "distributed",
                 Fmt(p.wait_store, 2), Fmt(p.store, 2), Fmt(p.local, 2),
                 Fmt(p.wait_store + p.local, 2), Fmt(p.store + p.local, 2)});
      curves[kind].push_back(p);
    }
  }
  // Scatter-gather: per-reconciliation time grows with the peer count
  // for both stores, and stays inexpensive (under a second) at 50 peers.
  bool grows = true;
  bool cheap = true;
  for (const auto& [kind, curve] : curves) {
    for (size_t i = 1; i < curve.size(); ++i) {
      grows = grows && curve[i].store + curve[i].local >
                           curve[i - 1].store + curve[i - 1].local;
    }
    cheap = cheap && curve.back().store + curve.back().local < 1000.0;
  }
  // Stop-and-wait: distributed over central store time at each size.
  // The paper has the distributed store dearer at every size, and by
  // more as peers join; the check asserts the widening gap and the
  // ordering from 25 peers on, and reports the 10-peer ratio.
  const std::vector<Point>& central = curves[StoreKind::kCentral];
  const std::vector<Point>& dht = curves[StoreKind::kDht];
  std::vector<double> wait_ratio;
  for (size_t i = 0; i < central.size(); ++i) {
    wait_ratio.push_back(dht[i].wait_store / central[i].wait_store);
  }
  bool widens = true;
  for (size_t i = 1; i < wait_ratio.size(); ++i) {
    widens = widens && wait_ratio[i] > wait_ratio[i - 1];
  }
  const bool dearer = wait_ratio[1] > 1.0 && wait_ratio[2] > 1.0;
  std::printf(
      "\nPaper shape check, stop-and-wait: the distributed store's store "
      "time grows faster with peers than the central store's: %s; it is "
      "the dearer store at 25 and 50 peers: %s (%.2fx at 10 peers, %.2fx "
      "at 25, %.2fx at 50).\n",
      widens ? "holds" : "FAILS", dearer ? "holds" : "FAILS", wait_ratio[0],
      wait_ratio[1], wait_ratio[2]);
  std::printf(
      "Paper shape check, scatter-gather: per-reconciliation time grows "
      "with peers for both stores: %s; under 1 s at 50 peers: %s. "
      "Distributed store time is %.2fx the central store's at 10 peers and "
      "%.2fx at 50.\n",
      grows ? "holds" : "FAILS", cheap ? "holds" : "FAILS",
      dht.front().store / central.front().store,
      dht.back().store / central.back().store);
  return widens && dearer && grows && cheap ? 0 : 1;
}
