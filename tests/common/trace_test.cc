// Tracer: scoped spans rendered as Chrome trace_event JSON. The
// contract under test: disabled tracing records nothing (so tests and
// production runs stay quiet), and an enabled trace flushes to a file
// that is structurally valid JSON whose 'B'/'E' events nest — every
// span closes, per thread, in LIFO order with a matching name.
#include "common/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/trace_check.h"

namespace orchestra {
namespace {

using testing::JsonScanner;
using testing::ParseEvents;
using testing::ParsedEvent;
using testing::ReadFile;
using testing::SpansNestPerTrack;

std::string TempTracePath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(TraceTest, DisabledSpansRecordNothing) {
  if (Tracer::Global().enabled()) Tracer::Global().Disable();
  const size_t before = Tracer::Global().event_count();
  {
    TraceSpan outer("quiet.outer");
    TraceSpan inner("quiet.inner");
  }
  EXPECT_EQ(Tracer::Global().event_count(), before);
}

TEST(TraceTest, FlushedTraceIsValidJsonWithBalancedSpans) {
  const std::string path = TempTracePath("trace_balanced.json");
  Tracer::Global().Enable(path);
  {
    TraceSpan outer("span.outer");
    {
      TraceSpan inner("span.inner");
    }
    // Spans from worker threads land under their own tids.
    std::vector<std::thread> workers;
    for (int t = 0; t < 3; ++t) {
      workers.emplace_back([] {
        TraceSpan worker_span("span.worker");
        TraceSpan nested("span.worker_nested");
      });
    }
    for (std::thread& w : workers) w.join();
  }
  Tracer::Global().Disable();  // flushes

  const std::string json = ReadFile(path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);

  std::vector<ParsedEvent> events = ParseEvents(json);
  // Thread-name metadata rows lead the stream: one "M" per registered
  // thread (at least the main thread and the 3 workers; the tracer is a
  // process singleton, so earlier tests may have registered more), each
  // labeled "thread-N" in registration order.
  EXPECT_NE(json.find("\"args\":{\"name\":\"thread-0\"}"), std::string::npos);
  size_t metadata = 0;
  while (metadata < events.size() && events[metadata].phase == 'M') {
    EXPECT_EQ(events[metadata].name, "thread_name");
    ++metadata;
  }
  EXPECT_GE(metadata, 4u);
  events.erase(events.begin(), events.begin() + metadata);
  // outer + inner + 3 threads * 2 spans, each a B/E pair.
  ASSERT_EQ(events.size(), 16u);
  for (const ParsedEvent& event : events) {
    ASSERT_TRUE(event.phase == 'B' || event.phase == 'E') << event.phase;
  }
  EXPECT_TRUE(SpansNestPerTrack(events));
  std::remove(path.c_str());
}

// Regression: a span still alive across Disable()/Enable() must not
// emit its 'E' into the second session — before the session-generation
// check, the second flush began with an unmatched 'E' that confused
// viewers and broke span nesting.
TEST(TraceTest, SpanAliveAcrossSessionsDoesNotLeak) {
  const std::string p1 = TempTracePath("trace_sess1.json");
  const std::string p2 = TempTracePath("trace_sess2.json");
  Tracer::Global().Enable(p1);
  auto survivor = std::make_unique<TraceSpan>("leak.survivor");
  Tracer::Global().Disable();  // flushes the unmatched 'B', clears
  Tracer::Global().Enable(p2);
  survivor.reset();  // would previously leak an 'E' into session 2
  { TraceSpan s("leak.second"); }
  Tracer::Global().Disable();

  const std::string json = ReadFile(p2);
  EXPECT_TRUE(JsonScanner(json).Valid()) << json;
  EXPECT_EQ(json.find("leak.survivor"), std::string::npos) << json;
  EXPECT_NE(json.find("leak.second"), std::string::npos);
  for (const ParsedEvent& event : ParseEvents(json)) {
    if (event.phase == 'M') continue;
    EXPECT_EQ(event.name, "leak.second");
  }
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(TraceTest, DisableClearsTheBuffer) {
  const std::string path = TempTracePath("trace_clear.json");
  Tracer::Global().Enable(path);
  { TraceSpan s("clear.span"); }
  EXPECT_EQ(Tracer::Global().event_count(), 2u);
  Tracer::Global().Disable();
  // The flushed events are gone: a later flush (the atexit hook) cannot
  // write this session's events a second time.
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
  std::remove(path.c_str());
}

TEST(TraceTest, ReEnableStartsAFreshBuffer) {
  const std::string path = TempTracePath("trace_fresh.json");
  Tracer::Global().Enable(path);
  { TraceSpan s("fresh.first"); }
  EXPECT_EQ(Tracer::Global().event_count(), 2u);
  Tracer::Global().Enable(path);  // re-enable clears the buffer
  EXPECT_EQ(Tracer::Global().event_count(), 0u);
  { TraceSpan s("fresh.second"); }
  Tracer::Global().Disable();
  const std::string json = ReadFile(path);
  EXPECT_EQ(json.find("fresh.first"), std::string::npos);
  EXPECT_NE(json.find("fresh.second"), std::string::npos);
  std::remove(path.c_str());
}

// A span given a context lands on the context's track at the context's
// clock, whether or not the wall session is on; the wall session sees
// the same name on its own clock.
TEST(TraceTest, SpanWithContextLandsOnBothTimelines) {
  Tracer sim("sim");
  sim.SetTrackName(3, "peer-3");
  int64_t now = 100;
  const TraceContext context{&sim, 3, [&now] { return now; }};

  if (Tracer::Global().enabled()) Tracer::Global().Disable();
  {
    TraceSpan span("ctx.quiet_wall", &context);
    now = 250;
  }
  EXPECT_EQ(Tracer::Global().event_count(), 0u);

  const std::string path = TempTracePath("trace_context.json");
  Tracer::Global().Enable(path);
  {
    TraceSpan span("ctx.both", &context);
    sim.Record(3, "net.send", 'I', now, 64);
    now = 400;
  }
  EXPECT_EQ(Tracer::Global().event_count(), 2u);
  Tracer::Global().Disable();
  const std::string wall = ReadFile(path);
  EXPECT_NE(wall.find("\"name\":\"ctx.both\""), std::string::npos);
  EXPECT_EQ(wall.find("ctx.quiet_wall"), std::string::npos);
  std::remove(path.c_str());

  EXPECT_EQ(sim.ToJson(),
            "{\"traceEvents\":["
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3,"
            "\"args\":{\"name\":\"peer-3\"}},"
            "{\"name\":\"ctx.quiet_wall\",\"cat\":\"sim\",\"ph\":\"B\","
            "\"ts\":100,\"pid\":1,\"tid\":3},"
            "{\"name\":\"ctx.quiet_wall\",\"cat\":\"sim\",\"ph\":\"E\","
            "\"ts\":250,\"pid\":1,\"tid\":3},"
            "{\"name\":\"ctx.both\",\"cat\":\"sim\",\"ph\":\"B\","
            "\"ts\":250,\"pid\":1,\"tid\":3},"
            "{\"name\":\"net.send\",\"cat\":\"sim\",\"ph\":\"I\","
            "\"ts\":250,\"pid\":1,\"tid\":3,\"s\":\"t\",\"args\":{\"bytes\":64}},"
            "{\"name\":\"ctx.both\",\"cat\":\"sim\",\"ph\":\"E\","
            "\"ts\":400,\"pid\":1,\"tid\":3}"
            "],\"displayTimeUnit\":\"ms\"}\n");
  EXPECT_TRUE(JsonScanner(sim.ToJson()).Valid());
}

}  // namespace
}  // namespace orchestra
