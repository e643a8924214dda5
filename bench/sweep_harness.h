#ifndef ORCHESTRA_BENCH_SWEEP_HARNESS_H_
#define ORCHESTRA_BENCH_SWEEP_HARNESS_H_

// Shared harness behind `orch_sweep <name> <out.json>`: one leg runner,
// one baseline matcher, the metrics block and one JSON writer. Each
// sweep (sweep_*.cc) holds only its leg specs, its gates and its row
// fields.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "db/schema.h"
#include "sim/cdss.h"

namespace orchestra::bench {

/// The bench catalog: one relation F(organism, protein, function) keyed
/// on (organism, protein).
db::Catalog& ProteinCatalog();

/// Nearest-rank quantile of an ascending, non-empty sample.
double Quantile(const std::vector<double>& sorted, double q);

/// Streaming JSON writer. Containers begun with `one_per_line` put each
/// element on its own indented line; all others stay inline. Strings are
/// escaped, and every floating-point field names its precision.
class Json {
 public:
  Json& Begin(char bracket, bool one_per_line = false);
  Json& Close();
  Json& Key(std::string_view name);

  template <typename T>
  Json& Field(std::string_view key, const T& v) {
    return Key(key).Value(v);
  }
  template <typename T>
  Json& Field(std::string_view key, const std::vector<T>& values) {
    Key(key).Begin('[');
    for (const T& v : values) Value(v);
    return Close();
  }
  Json& Field(std::string_view key, double v, int precision) {
    return Key(key).Num(v, precision);
  }
  Json& Field(std::string_view key, const std::vector<double>& values,
              int precision);

  const std::string& text() const { return out_; }
  /// Writes the document to `path`; false (with a note on stderr) when
  /// the file cannot be written.
  bool WriteTo(const std::string& path) const;

 private:
  template <typename T>
  Json& Value(const T& v) {
    if constexpr (std::is_same_v<T, bool>) {
      return Raw(v ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      return Raw(std::to_string(v));
    } else {
      return Str(v);
    }
  }
  Json& Str(std::string_view value);
  Json& Num(double value, int precision);
  Json& Raw(std::string_view token);
  void BeginValue();

  struct Frame {
    char close;
    bool one_per_line;
    bool empty = true;
  };
  std::string out_;
  std::vector<Frame> stack_;
  bool after_key_ = false;
};

/// Writes the "metrics" block: the movement of the process-wide metrics
/// registry between `start` and `end`. Time-valued counters (names
/// ending in "_micros") are dropped; what remains counts discrete events
/// that are deterministic for a fixed seed, so the block is diffed
/// against the baseline rather than stripped.
void WriteMetrics(Json& j, const std::map<std::string, int64_t>& start,
                  const std::map<std::string, int64_t>& end);

/// One peer's final decision sets, sorted so they compare directly.
struct PeerSnapshot {
  std::vector<std::pair<uint32_t, uint64_t>> applied;
  std::vector<std::pair<uint32_t, uint64_t>> rejected;
  bool operator==(const PeerSnapshot&) const = default;
};

/// One confederation run of a sweep: its spec (config plus the injection
/// seed it reports, 0 for a sweep's injection-free baseline) and its
/// outcome.
struct Leg {
  uint64_t seed = 0;
  sim::CdssConfig config;

  bool ok = false;
  std::string error;
  sim::CdssResult result;  // filled only when RunLeg drives Run()
  std::vector<PeerSnapshot> peers;
  int64_t corrupted_buffers = 0;  // buffers the injector actually mutated
  bool matches_baseline = true;   // set by the sweep from Matches()
};

/// Drives a built confederation in place of Cdss::Run (e.g. round by
/// round through StepParticipant).
using Driver = std::function<Status(sim::Cdss&)>;

/// Make → Run (or `drive`) → error capture → per-peer snapshot.
void RunLeg(Leg& leg, const Driver& drive = {});

/// Every peer decided exactly as in `baseline`, at the same state ratio.
bool Matches(const Leg& leg, const Leg& baseline);

/// The leg injected something: faults, churn events or corrupted
/// buffers. A seeded leg that injects nothing covers no fault path.
bool Exercised(const Leg& leg);

/// "central" or "dht".
const char* StoreName(sim::StoreKind kind);

/// One progress line per leg: its spec, completion (or error), what it
/// injected and its baseline verdict. The JSON row holds the rest.
void PrintLeg(const char* sweep, const Leg& leg);

/// Row fields every fault, churn and corruption leg reports: completion
/// (and its error), decision totals, the baseline verdict and, for a
/// seeded leg, whether it injected anything.
void WriteOutcome(Json& j, const Leg& leg);

/// Each sweep fills `j` with its document and returns its verdict.
bool RunStudy(Json& j);
bool RunFaultSweep(Json& j);
bool RunChurnSweep(Json& j);
bool RunDeltaSweep(Json& j);
bool RunCorruptionSweep(Json& j);

}  // namespace orchestra::bench

#endif  // ORCHESTRA_BENCH_SWEEP_HARNESS_H_
