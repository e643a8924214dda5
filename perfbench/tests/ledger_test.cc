#include "driver/ledger.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

Span Make(Layer layer, int32_t parent, int64_t start, int64_t end) {
  Span span;
  span.layer = layer;
  span.parent = parent;
  span.start_ns = start;
  span.end_ns = end;
  return span;
}

TEST(SelfTimeTest, SubtractsDisjointChildren) {
  const std::vector<Span> spans = {
      Make(Layer::kTurn, -1, 0, 100),
      Make(Layer::kExecute, 0, 10, 20),
      Make(Layer::kReconcile, 0, 30, 90),
      Make(Layer::kStoreFetch, 2, 30, 50),
      Make(Layer::kStoreRecordDecisions, 2, 80, 85),
  };
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{30, 10, 35, 20, 5}));
}

TEST(SelfTimeTest, OverlappingChildrenCountOnceAndAreClipped) {
  const std::vector<Span> spans = {
      Make(Layer::kReconcile, -1, 100, 200),
      Make(Layer::kStoreFetch, 0, 90, 130),   // starts before the parent
      Make(Layer::kStoreFetch, 0, 120, 150),  // overlaps the first
      Make(Layer::kStoreFetch, 0, 190, 260),  // ends after the parent
  };
  // Covered: [100, 150) and [190, 200) = 60 of 100.
  EXPECT_EQ(SelfTimes(spans)[0], 40);
}

TEST(SelfTimeTest, GrandchildrenDoNotReduceGrandparent) {
  const std::vector<Span> spans = {
      Make(Layer::kTurn, -1, 0, 100),
      Make(Layer::kPublish, 0, 0, 60),
      Make(Layer::kStorePublish, 1, 10, 50),
  };
  EXPECT_EQ(SelfTimes(spans), (std::vector<int64_t>{40, 20, 40}));
}

TEST(LedgerTest, SelfTimesAddUpPerTurn) {
  const std::vector<Span> spans = {
      Make(Layer::kTurn, -1, 0, 100),
      Make(Layer::kGenerate, 0, 0, 10),
      Make(Layer::kExecute, 0, 10, 20),
      Make(Layer::kReconcile, 0, 30, 90),
      Make(Layer::kStoreFetch, 3, 30, 50),
      Make(Layer::kTurn, -1, 100, 150),
      Make(Layer::kReconcile, 5, 100, 140),
  };
  const LedgerSummary summary = SummarizeLedger(spans);
  EXPECT_EQ(summary.turns, 2);
  EXPECT_EQ(summary.unbalanced_turns, 0);
  EXPECT_EQ(summary.orphan_spans, 0);
  EXPECT_EQ(summary.turn_wall_ns, 140);  // 150 minus 10 of generator
  EXPECT_EQ(summary.of(Layer::kTurn).self_ns, 20 + 10);
  EXPECT_EQ(summary.of(Layer::kReconcile).count, 2);
  EXPECT_EQ(summary.of(Layer::kReconcile).self_ns, 40 + 40);
  EXPECT_DOUBLE_EQ(summary.ResidualShare(), 30.0 / 140.0);
}

TEST(LedgerTest, FlagsChildOutsideItsTurn) {
  const std::vector<Span> spans = {
      Make(Layer::kTurn, -1, 0, 100),
      Make(Layer::kReconcile, 0, 50, 120),  // overruns the turn
      Make(Layer::kStoreFetch, -1, 130, 140),
  };
  const LedgerSummary summary = SummarizeLedger(spans);
  EXPECT_EQ(summary.unbalanced_turns, 1);
  EXPECT_EQ(summary.orphan_spans, 1);
}

TEST(SpanRecorderTest, NestsByScope) {
  SpanRecorder recorder;
  {
    ScopedSpan turn(&recorder, Layer::kTurn);
    { ScopedSpan execute(&recorder, Layer::kExecute); }
    {
      ScopedSpan reconcile(&recorder, Layer::kReconcile);
      ScopedSpan fetch(&recorder, Layer::kStoreFetch);
    }
  }
  ScopedSpan nothing(nullptr, Layer::kTurn);
  const std::vector<Span>& spans = recorder.spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[3].parent, 2);
  for (const Span& span : spans) EXPECT_LE(span.start_ns, span.end_ns);
  EXPECT_EQ(SummarizeLedger(spans).unbalanced_turns, 0);
}

}  // namespace
}  // namespace perfbench
