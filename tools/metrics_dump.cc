// metrics_dump: runs a small confederation against both update stores
// with tracing enabled, then renders the process-wide metrics registry
// (common/metrics.h) as a table — the quickest way to see what the
// observability layer records and where the trace file lands.
//
// Usage: metrics_dump [trace_path]
//   trace_path defaults to "metrics_dump_trace.json" in the working
//   directory (or the ORCH_TRACE env var when set). Load the file at
//   chrome://tracing or https://ui.perfetto.dev.
#include <cstdio>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"
#include "sim/cdss.h"

using namespace orchestra;

namespace {

const char* KindName(MetricsRegistry::Sample::Kind kind) {
  switch (kind) {
    case MetricsRegistry::Sample::Kind::kCounter:
      return "counter";
    case MetricsRegistry::Sample::Kind::kGauge:
      return "gauge";
    case MetricsRegistry::Sample::Kind::kHistogram:
      return "histogram";
  }
  return "?";
}

int RunConfederation(sim::StoreKind kind) {
  sim::CdssConfig cfg;
  cfg.participants = 8;
  cfg.store = kind;
  cfg.rounds = 3;
  cfg.txns_between_recons = 2;
  auto cdss = sim::Cdss::Make(cfg);
  if (!cdss.ok()) {
    std::fprintf(stderr, "Cdss::Make failed: %s\n",
                 cdss.status().ToString().c_str());
    return 1;
  }
  auto result = (*cdss)->Run();
  if (!result.ok()) {
    std::fprintf(stderr, "Cdss::Run failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "%s store: %zu reconciliations, %zu accepted, %zu deferred, "
      "state ratio %.3f\n",
      kind == sim::StoreKind::kCentral ? "central" : "dht",
      result->reconciliations, result->accepted, result->deferred,
      result->state_ratio);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // Tracer::Global() has already enabled itself when ORCH_TRACE is set;
  // an explicit argument still wins.
  if (argc > 1) {
    Tracer::Global().Enable(argv[1]);
  } else if (!Tracer::Global().enabled()) {
    Tracer::Global().Enable("metrics_dump_trace.json");
  }
  const std::string trace_path = Tracer::Global().path();

  if (RunConfederation(sim::StoreKind::kCentral) != 0) return 1;
  if (RunConfederation(sim::StoreKind::kDht) != 0) return 1;

  std::printf("\n%-40s %-9s %14s %10s %8s %8s %8s\n", "metric", "kind",
              "value", "count", "p50", "p95", "p99");
  std::printf("%-40s %-9s %14s %10s %8s %8s %8s\n", "------", "----", "-----",
              "-----", "---", "---", "---");
  for (const MetricsRegistry::Sample& s :
       MetricsRegistry::Global().TakeSnapshot()) {
    if (s.kind == MetricsRegistry::Sample::Kind::kHistogram) {
      // value column shows the sum; count makes the mean recoverable.
      // Quantiles are bucket-interpolated estimates (EstimateQuantile):
      // exact at bucket edges, within a factor of 4 inside a bucket.
      std::printf(
          "%-40s %-9s %14lld %10lld %8lld %8lld %8lld\n", s.name.c_str(),
          KindName(s.kind), static_cast<long long>(s.histogram.sum),
          static_cast<long long>(s.histogram.count),
          static_cast<long long>(EstimateQuantile(s.histogram, 0.50)),
          static_cast<long long>(EstimateQuantile(s.histogram, 0.95)),
          static_cast<long long>(EstimateQuantile(s.histogram, 0.99)));
    } else {
      std::printf("%-40s %-9s %14lld %10s\n", s.name.c_str(), KindName(s.kind),
                  static_cast<long long>(s.value), "");
    }
  }

  const Status flushed = Tracer::Global().Flush();
  if (!flushed.ok()) {
    std::fprintf(stderr, "trace flush failed: %s\n",
                 flushed.ToString().c_str());
    return 1;
  }
  std::printf("\n%zu trace events written to %s "
              "(open at chrome://tracing or ui.perfetto.dev)\n",
              Tracer::Global().event_count(), trace_path.c_str());
  return 0;
}
