#ifndef ORCHESTRA_COMMON_TRACE_H_
#define ORCHESTRA_COMMON_TRACE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace orchestra {

/// Span recorder emitting Chrome `trace_event` JSON (load the file at
/// chrome://tracing or https://ui.perfetto.dev). One type serves two
/// clocks:
///
/// - Wall clock: `Tracer::Global()` is the process-wide session.
///   Disabled by default; enable it programmatically
///   (`Tracer::Global().Enable(path)`) or by setting the `ORCH_TRACE`
///   environment variable to an output path before the first span. The
///   file is written on Disable()/Flush() and automatically at process
///   exit. Tracks are threads.
/// - Simulated clock: any other instance (sim::Cdss owns one) records
///   caller-stamped events through Record(), one track per peer. With
///   timestamps taken from the per-peer simulated clock and events kept
///   in insertion order, the JSON is bit-identical across same-seed
///   runs (the determinism contract; see docs/ARCHITECTURE.md
///   "Tracing").
///
/// Neither timeline feeds back into simulation state, so reconciliation
/// decisions are bit-identical with tracing on or off.
class Tracer {
 public:
  /// `category` fills every event's "cat" field.
  explicit Tracer(std::string category) : category_(std::move(category)) {}

  /// The wall-clock session (category "orchestra").
  static Tracer& Global();

  // --- Wall-clock session (Global() only). ---

  /// Starts buffering events, to be written to `path` on Flush().
  /// Begins a fresh session: the buffer is cleared and the session
  /// generation advances, so spans still alive from an earlier session
  /// cannot emit their 'E' into this one.
  void Enable(std::string path);

  /// Stops tracing, flushes buffered events to the configured path, and
  /// clears the buffer — a later Flush() (e.g. the atexit hook) cannot
  /// re-write this session's events.
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  std::string path() const;

  /// Monotonic Enable() generation, starting at 1 (0 never records).
  /// TraceSpan pairs its 'E' with the session its 'B' was recorded in;
  /// a mismatch drops the 'E'.
  uint64_t session() const {
    return session_.load(std::memory_order_relaxed);
  }

  /// Appends a begin ('B') or end ('E') event stamped with the steady
  /// clock on the calling thread's track; `name` must outlive the
  /// tracer (string literals in practice). Thread-safe.
  void RecordEvent(const char* name, char phase);

  /// Writes all buffered events to the configured path. Keeps the
  /// buffer; callers wanting a fresh trace re-Enable().
  Status Flush();

  // --- Caller-stamped events (any instance). ---

  /// Labels track `tid` ("peer-3"); emitted as an "M" metadata event.
  void SetTrackName(uint32_t tid, std::string name);

  /// Appends an event at `ts_micros` on track `tid`: 'B'/'E' for spans,
  /// 'I' for instants. `bytes >= 0` is rendered as an args payload
  /// (message sizes for net.send / net.recv). `name` must outlive the
  /// tracer.
  void Record(uint32_t tid, const char* name, char phase, int64_t ts_micros,
              int64_t bytes = -1);

  // --- Output (any instance). ---

  /// Renders all buffered events as one Chrome trace JSON document:
  /// the "M" track names first (ordered by tid), then every event in
  /// insertion order. Same events in, same bytes out.
  std::string ToJson() const;

  /// Writes ToJson() to `path`.
  Status WriteTo(const std::string& path) const;

  /// Buffered event count (tests / diagnostics).
  size_t event_count() const;

 private:
  struct Event {
    const char* name;
    char phase;         // 'B', 'E', or 'I'
    int64_t ts_micros;  // relative to Enable() on the wall clock
    uint32_t tid;
    int64_t bytes;      // < 0: omitted from the rendered args
  };

  /// Dense track index for the calling thread (registered on first use
  /// and labeled "thread-N"; Global() only).
  uint32_t ThreadIndexLocked();

  const std::string category_;
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> session_{0};
  mutable std::mutex mu_;
  std::string path_;
  std::map<uint32_t, std::string> track_names_;
  std::vector<Event> events_;
  int64_t epoch_micros_ = 0;  // steady-clock origin
  bool atexit_registered_ = false;
};

/// Where a span lands on the simulated timeline: the recorder, the
/// peer's track, and a clock reading the peer's current simulated time.
/// Passed by pointer; a null context means "wall clock only".
struct TraceContext {
  Tracer* tracer = nullptr;
  uint32_t tid = 0;
  std::function<int64_t()> now;

  void Record(const char* name, char phase) const {
    tracer->Record(tid, name, phase, now());
  }
};

/// RAII scoped span: emits a 'B' event at construction and the matching
/// 'E' at destruction onto the wall session when it is enabled, and
/// onto `context`'s track when a context is given. With both off the
/// cost is one relaxed atomic load and one pointer test. The name must
/// be a string literal (or otherwise outlive the tracers).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name, const TraceContext* context = nullptr)
      : name_(name), context_(context) {
    Tracer& wall = Tracer::Global();
    if (wall.enabled()) {
      session_ = wall.session();
      wall.RecordEvent(name_, 'B');
    }
    if (context_ != nullptr) context_->Record(name_, 'B');
  }
  ~TraceSpan() {
    // The session check keeps a span that outlived its session (the
    // tracer was disabled, or disabled and re-enabled, while the span
    // was alive) from emitting an unmatched 'E' into a later session.
    if (session_ != 0 && Tracer::Global().session() == session_) {
      Tracer::Global().RecordEvent(name_, 'E');
    }
    if (context_ != nullptr) context_->Record(name_, 'E');
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  const TraceContext* context_;
  uint64_t session_ = 0;
};

}  // namespace orchestra

#endif  // ORCHESTRA_COMMON_TRACE_H_
