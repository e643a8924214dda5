// MetricsRegistry: named counters with relaxed-atomic hot paths. The
// contract under test: totals are exact under concurrency, registration
// returns stable references, CounterValues lists every counter by name,
// and delta arithmetic drops zero movement.
#include "common/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

namespace orchestra {
namespace {

TEST(CounterTest, AddAndIncrementAccumulate) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.Increment();
  c.Add(41);
  EXPECT_EQ(c.value(), 42);
}

TEST(MetricsRegistryTest, SameNameReturnsSameCounter) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("x.count");
  Counter& b = registry.GetCounter("x.count");
  EXPECT_EQ(&a, &b);
  a.Add(5);
  EXPECT_EQ(b.value(), 5);
}

TEST(MetricsRegistryTest, ReferencesSurviveLaterRegistrations) {
  MetricsRegistry registry;
  Counter& kept = registry.GetCounter("keep.me");
  kept.Add(123);
  for (int i = 0; i < 100; ++i) {
    registry.GetCounter("later." + std::to_string(i)).Increment();
  }
  kept.Increment();  // the cached reference still works
  EXPECT_EQ(registry.GetCounter("keep.me").value(), 124);
}

TEST(MetricsRegistryTest, CounterValuesAreSortedByName) {
  MetricsRegistry registry;
  registry.GetCounter("b.counter").Add(2);
  registry.GetCounter("a.counter").Add(1);
  registry.GetCounter("c.counter");  // registered, never moved
  const auto values = registry.CounterValues();
  ASSERT_EQ(values.size(), 3u);
  auto it = values.begin();
  EXPECT_EQ(it->first, "a.counter");
  EXPECT_EQ(it->second, 1);
  ++it;
  EXPECT_EQ(it->first, "b.counter");
  EXPECT_EQ(it->second, 2);
  ++it;
  EXPECT_EQ(it->first, "c.counter");
  EXPECT_EQ(it->second, 0);
}

TEST(MetricsRegistryTest, CounterDeltasDropZeroMovement) {
  MetricsRegistry registry;
  registry.GetCounter("moves").Add(10);
  registry.GetCounter("stays").Add(5);
  const auto before = registry.CounterValues();
  registry.GetCounter("moves").Add(7);
  registry.GetCounter("fresh").Add(2);  // registered after `before`
  const auto deltas = CounterDeltas(before, registry.CounterValues());
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(deltas.at("moves"), 7);
  EXPECT_EQ(deltas.at("fresh"), 2);
  EXPECT_EQ(deltas.count("stays"), 0u);
}

// The concurrency contract: N threads hammering the same counters (and
// racing registration of the same names) lose no updates and produce
// exact totals. Run under the tsan preset this is also the data-race
// proof for the relaxed-atomic design.
TEST(MetricsRegistryTest, ConcurrentUpdatesProduceExactTotals) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kIterations = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      // Every thread re-resolves by name: registration itself races.
      Counter& hits = registry.GetCounter("race.hits");
      for (int i = 0; i < kIterations; ++i) {
        hits.Increment();
        registry.GetCounter("race.bytes").Add(3);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(registry.GetCounter("race.hits").value(), kThreads * kIterations);
  EXPECT_EQ(registry.GetCounter("race.bytes").value(),
            int64_t{3} * kThreads * kIterations);
}

}  // namespace
}  // namespace orchestra
