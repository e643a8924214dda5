#ifndef PERFBENCH_DRIVER_LEDGER_H_
#define PERFBENCH_DRIVER_LEDGER_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// The layer boundaries the benchmark times from outside the program:
/// the benchmark's own loop (turn, generator) and each call it makes into
/// a participant or, through its store wrapper, into the update store.
enum class Layer : uint8_t {
  kTurn,
  kGenerate,
  kExecute,
  kPublish,
  kStorePublish,
  kReconcile,
  kStoreFetch,
  kStoreRecordDecisions,
  kStoreRecordProvenance,
};
inline constexpr size_t kLayerCount = 9;

const char* LayerName(Layer layer);

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by the calling thread.
int64_t ThreadCpuNs();

/// One timed interval. `parent` indexes the enclosing span in the same
/// recording (-1 for a root); a parent is always recorded before its
/// children.
struct Span {
  Layer layer = Layer::kTurn;
  int32_t parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span recorder for a single thread. Spans nest by scope: the
/// most recently begun open span is the parent of the next one.
class SpanRecorder {
 public:
  int32_t Begin(Layer layer);
  void End(int32_t id);

  const std::vector<Span>& spans() const { return spans_; }
  void Clear();

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null recorder records nothing and reads no clock, which
/// is how untraced runs pay no tracing cost.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Layer layer)
      : recorder_(recorder),
        id_(recorder == nullptr ? -1 : recorder->Begin(layer)) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int32_t id_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children counted once, children
/// clipped to the parent's interval).
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

/// Per-layer totals over a recording, plus the ledger check: within each
/// turn, the self times of the turn and everything below it must add up
/// to the turn's duration.
struct LedgerSummary {
  struct Totals {
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };
  std::array<Totals, kLayerCount> layers{};
  int64_t turns = 0;
  /// Sum over turns of turn duration minus generator time: the wall time
  /// the ledger has to account for.
  int64_t turn_wall_ns = 0;
  /// Turns whose self times did not add up to their duration.
  int64_t unbalanced_turns = 0;
  /// Spans not under any turn (a recorder misuse).
  int64_t orphan_spans = 0;

  const Totals& of(Layer layer) const {
    return layers[static_cast<size_t>(layer)];
  }
  /// Pools another recording's summary into this one.
  void Add(const LedgerSummary& other);
  /// Share of turn wall time no layer claimed (the turn's own self time).
  double ResidualShare() const;
};

LedgerSummary SummarizeLedger(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace_event JSON (complete "X" events on one
/// track, microsecond timestamps relative to the first span).
bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_LEDGER_H_
