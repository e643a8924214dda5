// `orch_sweep churn`: DHT node churn changes costs, never outcomes.
//
// Crashes, joins and graceful leaves between reconciliation rounds:
// replica groups (k=3) absorb each crash, key-range re-replication
// restores the invariant after every event, and failover reads keep
// every controller readable, so each peer's final applied/rejected sets
// are bit-identical to a churn-free run. The k=1 control leg runs the
// first seed's schedule with replication disabled and must lose data
// (an error or diverging decisions). It is gated on that loss, not on
// `exercised`: a leg whose run aborts reports no churn counts.
#include "common/metrics.h"
#include "sweep_harness.h"

namespace orchestra::bench {

bool RunChurnSweep(Json& j) {
  const auto start = MetricsRegistry::Global().CounterValues();
  const std::pair<uint64_t, size_t> kLegs[] = {  // (seed, k); last: control
      {0, 3}, {11, 3}, {12, 3}, {13, 3}, {11, 1}};
  std::vector<Leg> legs;
  bool pass = true;
  bool data_lost = false;
  for (const auto& [seed, k] : kLegs) {
    Leg& leg = legs.emplace_back();
    leg.seed = seed;
    leg.config.participants = 25;
    leg.config.store = sim::StoreKind::kDht;
    leg.config.rounds = 8;
    leg.config.txns_between_recons = 2;
    leg.config.replication_factor = k;
    if (seed != 0) {
      leg.config.churn = {.enabled = true,
                          .crash_probability = 0.04,
                          .join_probability = 0.6,
                          .leave_probability = 0.25,
                          .seed = seed,
                          .min_live_nodes = 8};
    }
    RunLeg(leg);
    const sim::CdssResult& r = leg.result;
    leg.matches_baseline = seed == 0 || Matches(leg, legs[0]);
    PrintLeg("churn", leg);
    if (seed == 0) {
      pass = pass && leg.ok;
    } else if (k == 1) {
      data_lost = !leg.matches_baseline;
    } else {
      // The schedule itself must be substantial, and the replica-placement
      // invariant must have held after every single event.
      pass = pass && leg.ok && leg.matches_baseline && Exercised(leg) &&
             r.node_crashes >= 5 && r.node_joins >= 3 &&
             r.replication_invariant_ok;
    }
  }
  pass = pass && data_lost;

  j.Begin('{', true).Field("bench", "churn_sweep");
  j.Field("participants", 25).Field("rounds", 8);
  j.Field("all_checks_pass", pass).Field("k1_control_lost_data", data_lost);
  WriteMetrics(j, start, MetricsRegistry::Global().CounterValues());
  j.Key("runs").Begin('[', true);
  for (const Leg& leg : legs) {
    const sim::CdssResult& r = leg.result;
    j.Begin('{').Field("seed", leg.seed);
    j.Field("replication_factor", leg.config.replication_factor)
        .Field("crashes", r.node_crashes)
        .Field("joins", r.node_joins)
        .Field("leaves", r.node_leaves)
        .Field("invariant_held", r.replication_invariant_ok);
    WriteOutcome(j, leg);
    j.Close();
  }
  j.Close().Close();
  return pass;
}

}  // namespace orchestra::bench
