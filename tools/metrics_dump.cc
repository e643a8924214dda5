// metrics_dump: runs a small confederation against both update stores
// with tracing enabled, then prints every counter of the process-wide
// metrics registry (common/metrics.h) as a name/value table — the
// quickest way to see what the observability layer records and where
// the trace file lands.
//
// Usage: metrics_dump [trace_path]
//   trace_path defaults to "metrics_dump_trace.json" in the working
//   directory (or the ORCH_TRACE env var when set). Load the file at
//   chrome://tracing or https://ui.perfetto.dev.
#include <cstdio>
#include <string>

#include "common/metrics.h"
#include "common/trace.h"
#include "sim/cdss.h"

using namespace orchestra;

namespace {

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

  std::printf("\n%-40s %14s\n", "counter", "value");
  std::printf("%-40s %14s\n", "-------", "-----");
  for (const auto& [name, value] : MetricsRegistry::Global().CounterValues()) {
    std::printf("%-40s %14lld\n", name.c_str(), static_cast<long long>(value));
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
