#include "driver/ledger.h"

#include <algorithm>
#include <cstdio>
#include <ctime>
#include <utility>

namespace perfbench {

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kTurn:
      return "turn";
    case Layer::kGenerate:
      return "workload.generate";
    case Layer::kExecute:
      return "participant.execute";
    case Layer::kPublish:
      return "participant.publish";
    case Layer::kStorePublish:
      return "store.publish";
    case Layer::kReconcile:
      return "participant.reconcile";
    case Layer::kStoreFetch:
      return "store.fetch";
    case Layer::kStoreRecordDecisions:
      return "store.record_decisions";
    case Layer::kStoreRecordProvenance:
      return "store.record_provenance";
  }
  return "unknown";
}

int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

int32_t SpanRecorder::Begin(Layer layer) {
  Span span;
  span.layer = layer;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(span);
  const auto id = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  // Scoped use closes the innermost span; tolerate anything else by
  // closing every span opened after `id` as well.
  while (!open_.empty()) {
    const int32_t top = open_.back();
    open_.pop_back();
    if (top == id) break;
  }
}

void SpanRecorder::Clear() {
  spans_.clear();
  open_.clear();
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<size_t>(span.parent)];
    const int64_t start = std::max(span.start_ns, parent.start_ns);
    const int64_t end = std::min(span.end_ns, parent.end_ns);
    if (end > start) {
      children[static_cast<size_t>(span.parent)].emplace_back(start, end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t run_start = 0;
    int64_t run_end = 0;
    bool open = false;
    for (const auto& [start, end] : intervals) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

void LedgerSummary::Add(const LedgerSummary& other) {
  for (size_t i = 0; i < kLayerCount; ++i) {
    layers[i].count += other.layers[i].count;
    layers[i].total_ns += other.layers[i].total_ns;
    layers[i].self_ns += other.layers[i].self_ns;
  }
  turns += other.turns;
  turn_wall_ns += other.turn_wall_ns;
  unbalanced_turns += other.unbalanced_turns;
  orphan_spans += other.orphan_spans;
}

double LedgerSummary::ResidualShare() const {
  if (turn_wall_ns <= 0) return 0;
  return static_cast<double>(of(Layer::kTurn).self_ns) /
         static_cast<double>(turn_wall_ns);
}

LedgerSummary SummarizeLedger(const std::vector<Span>& spans) {
  LedgerSummary summary;
  const std::vector<int64_t> self = SelfTimes(spans);
  // Root turn of every span; parents precede children, so one pass.
  std::vector<int32_t> root(spans.size(), -1);
  std::vector<int64_t> subtree_self(spans.size(), 0);
  std::vector<int64_t> generator_ns(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    root[i] = span.parent < 0 ? static_cast<int32_t>(i)
                              : root[static_cast<size_t>(span.parent)];
    LedgerSummary::Totals& totals =
        summary.layers[static_cast<size_t>(span.layer)];
    ++totals.count;
    totals.total_ns += span.end_ns - span.start_ns;
    totals.self_ns += self[i];
    const Span& top = spans[static_cast<size_t>(root[i])];
    if (top.layer != Layer::kTurn) {
      ++summary.orphan_spans;
      continue;
    }
    subtree_self[static_cast<size_t>(root[i])] += self[i];
    if (span.layer == Layer::kGenerate) {
      generator_ns[static_cast<size_t>(root[i])] += span.end_ns - span.start_ns;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0 || spans[i].layer != Layer::kTurn) continue;
    const int64_t duration = spans[i].end_ns - spans[i].start_ns;
    ++summary.turns;
    summary.turn_wall_ns += duration - generator_ns[i];
    if (subtree_self[i] != duration) ++summary.unbalanced_turns;
  }
  return summary;
}

bool WriteChromeTrace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"traceEvents\":[\n", out);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::fprintf(out,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f}\n",
                 i == 0 ? "" : ",", LayerName(span.layer),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  std::fputs("]}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
