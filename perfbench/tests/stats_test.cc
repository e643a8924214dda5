#include "driver/stats.h"

#include <gtest/gtest.h>

#include <vector>

namespace perfbench {
namespace {

std::vector<double> OneTo(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(NearestRankTest, IsCeilingOfQTimesN) {
  EXPECT_EQ(NearestRank(100, 0.5), 50u);
  EXPECT_EQ(NearestRank(101, 0.5), 51u);
  EXPECT_EQ(NearestRank(1000, 0.99), 990u);  // not 991 from 990.0000001
  EXPECT_EQ(NearestRank(1001, 0.99), 991u);
  EXPECT_EQ(NearestRank(1, 0.99), 1u);
  EXPECT_EQ(NearestRank(0, 0.5), 0u);
}

TEST(PercentileTest, NearestRankOverUnsortedSamples) {
  EXPECT_DOUBLE_EQ(Percentile(OneTo(1000), 0.99).value(), 990.0);
  EXPECT_DOUBLE_EQ(Percentile(OneTo(2000), 0.99).value(), 1980.0);
  EXPECT_DOUBLE_EQ(Median(OneTo(7)), 4.0);
  EXPECT_DOUBLE_EQ(Median(OneTo(8)), 4.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(PercentileTest, RequiresTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 0.99), 10u);
  EXPECT_EQ(SamplesBeyond(999, 0.99), 9u);
  EXPECT_TRUE(Percentile(OneTo(1000), 0.99).has_value());
  EXPECT_FALSE(Percentile(OneTo(999), 0.99).has_value());
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
  // The median of 20 samples has 10 beyond it; of 19, only 9.
  EXPECT_TRUE(Percentile(OneTo(20), 0.5).has_value());
  EXPECT_FALSE(Percentile(OneTo(19), 0.5).has_value());
}

TEST(RateMeterTest, ExcludesGeneratorAndSetup) {
  RateMeter meter;
  meter.AddSetup(5'000'000'000);
  // Two turns of 1.5 s wall, 0.5 s of it generating, plus 0.5 s of
  // simulated network time each: 3 s of system time, 2 s of it wall.
  meter.AddTurn(1'500'000'000, 500'000'000, 500'000'000, 1);
  meter.AddTurn(1'500'000'000, 500'000'000, 500'000'000, 1);
  EXPECT_EQ(meter.completed(), 2);
  EXPECT_EQ(meter.wall_ns(), 2'000'000'000);
  EXPECT_EQ(meter.simulated_ns(), 1'000'000'000);
  EXPECT_EQ(meter.generator_ns(), 1'000'000'000);
  EXPECT_EQ(meter.setup_ns(), 5'000'000'000);
  EXPECT_DOUBLE_EQ(meter.PerSecond(), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(meter.WallPerSecond(), 1.0);

  // More set-up or generator time leaves the rate unchanged.
  RateMeter slower_setup = meter;
  slower_setup.AddSetup(60'000'000'000);
  EXPECT_DOUBLE_EQ(slower_setup.PerSecond(), 2.0 / 3.0);
  RateMeter other;
  other.AddTurn(4'000'000'000, 3'000'000'000, 0, 1);
  other.AddTurn(1'000'000'000, 0, 0, 1);
  EXPECT_DOUBLE_EQ(other.PerSecond(), 1.0);

  RateMeter pooled;
  pooled.Add(meter);
  pooled.Add(other);
  EXPECT_EQ(pooled.completed(), 4);
  EXPECT_DOUBLE_EQ(pooled.PerSecond(), 4.0 / 5.0);
}

TEST(RateMeterTest, EmptyIsZero) { EXPECT_EQ(RateMeter().PerSecond(), 0.0); }

}  // namespace
}  // namespace perfbench
