// orch_sweep: runs one of the repo's BENCH_*.json emitters.
//
//   orch_sweep <study|fault|churn|delta|corruption> <out.json>
//
// study       provenance off vs on over one 512-transaction reconcile
//             call (BENCH_micro_reconcile.json)
// fault       store-side faults never change decisions
// churn       DHT node churn never changes decisions
// delta       what the delta fetch pipeline saves vs the full reference
// corruption  silent corruption is detected and absorbed
//
// Exit status: 0 when the sweep's verdict holds and its JSON was
// written, 1 otherwise, 2 on a usage error. ORCH_TRACE=<path> traces
// the run (common/trace.h).
#include <cstdio>
#include <string_view>

#include "sweep_harness.h"

int main(int argc, char** argv) {
  using namespace orchestra::bench;
  static constexpr std::pair<std::string_view, bool (*)(Json&)> kSweeps[] = {
      {"study", RunStudy},
      {"fault", RunFaultSweep},
      {"churn", RunChurnSweep},
      {"delta", RunDeltaSweep},
      {"corruption", RunCorruptionSweep}};
  for (const auto& [name, run] : kSweeps) {
    if (argc != 3 || argv[1] != name) continue;
    Json j;
    const bool pass = run(j);
    const bool written = j.WriteTo(argv[2]);
    std::printf("%s %s %s (%s)\n", argv[1],
                written ? "written to" : "NOT written to", argv[2],
                pass ? "all checks pass" : "CHECK FAILED");
    return pass && written ? 0 : 1;
  }
  std::fprintf(stderr,
               "usage: orch_sweep <study|fault|churn|delta|corruption> "
               "<out.json>\n");
  return 2;
}
