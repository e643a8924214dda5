// `orch_sweep fault`: crash consistency under store-side faults.
//
// For each store kind, one fault-free baseline run, then one faulted
// run per seed with a 1% failure probability on every store-side
// side-effecting operation. Every faulted run must finish, inject at
// least one fault, and leave every peer with exactly the baseline's
// applied/rejected sets and state ratio, with retries and the
// stuck-epoch reaper absorbing the losses.
#include "common/metrics.h"
#include "sweep_harness.h"

namespace orchestra::bench {

constexpr double kFailureProbability = 0.01;

bool RunFaultSweep(Json& j) {
  const auto start = MetricsRegistry::Global().CounterValues();
  std::vector<Leg> legs;
  bool pass = true;
  for (sim::StoreKind kind : {sim::StoreKind::kCentral, sim::StoreKind::kDht}) {
    const size_t baseline = legs.size();
    for (uint64_t seed : {0, 1, 2, 3}) {
      Leg& leg = legs.emplace_back();
      leg.seed = seed;
      leg.config.participants = 25;
      leg.config.store = kind;
      leg.config.rounds = 4;
      leg.config.txns_between_recons = 2;
      if (seed != 0) {
        leg.config.fault.failure_probability = kFailureProbability;
        leg.config.fault.seed = seed;
      }
      RunLeg(leg);
      leg.matches_baseline = seed == 0 || Matches(leg, legs[baseline]);
      pass = pass && leg.ok && leg.matches_baseline &&
             (seed == 0 || Exercised(leg));
      PrintLeg("fault", leg);
    }
  }

  j.Begin('{', true).Field("bench", "fault_sweep");
  j.Field("failure_probability", kFailureProbability, 2)
      .Field("all_runs_match_baseline", pass);
  WriteMetrics(j, start, MetricsRegistry::Global().CounterValues());
  j.Key("runs").Begin('[', true);
  for (const Leg& leg : legs) {
    j.Begin('{').Field("store", StoreName(leg.config.store));
    j.Field("seed", leg.seed)
        .Field("faults_injected", leg.result.faults_injected)
        .Field("retried_operations", leg.result.retried_operations)
        .Field("backoff_micros", leg.result.backoff_micros);
    WriteOutcome(j, leg);
    j.Close();
  }
  j.Close().Close();
  return pass;
}

}  // namespace orchestra::bench
