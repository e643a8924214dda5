// Reproduces Figure 11: the change in state ratio as the number of
// participants grows to 50 (§6.3). Expected shape: the ratio grows
// decidedly sublinearly in the peer count, indicating a high level of
// sharing even in large confederations.
#include <cstdio>

#include "sim/experiment.h"

int main() {
  using namespace orchestra::sim;
  constexpr size_t kTrials = 3;
  std::printf("Figure 11: state ratio vs. number of participants\n");
  std::printf("(txn size 1, RI 4, %zu trials, 95%% CI)\n\n", kTrials);
  TablePrinter table({"Peers", "State ratio", "95% CI", "Ratio/peers"});
  for (size_t peers : {5, 10, 20, 35, 50}) {
    CdssConfig config;
    config.participants = peers;
    config.store = StoreKind::kCentral;
    config.transaction_size = 1;
    config.txns_between_recons = 4;
    config.rounds = 5;
    auto agg = RunTrials(config, kTrials);
    if (!agg.ok()) {
      std::fprintf(stderr, "trial failed: %s\n",
                   agg.status().ToString().c_str());
      return 1;
    }
    table.Row({std::to_string(peers), Fmt(agg->state_ratio.mean),
               Fmt(agg->state_ratio.ci95),
               Fmt(agg->state_ratio.mean / static_cast<double>(peers), 3)});
  }
  std::printf(
      "\nPaper shape check: ratio grows sublinearly (ratio/peers falls as "
      "peers grow).\n");
  return 0;
}
