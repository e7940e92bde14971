#include "common/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

namespace ptb {
namespace {

TEST(RunningStat, Empty) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat s;
  s.add(5.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(RunningStat, KnownMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance of this classic dataset is 32/7.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, WelfordMatchesNaiveOnManySamples) {
  RunningStat s;
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    const double v = std::sin(i * 0.1) * 100 + i * 0.001;
    s.add(v);
    sum += v;
    sum2 += v * v;
  }
  const double mean = sum / kN;
  const double var = (sum2 - kN * mean * mean) / (kN - 1);
  EXPECT_NEAR(s.mean(), mean, 1e-9);
  EXPECT_NEAR(s.variance(), var, var * 1e-9);
}

TEST(RunningStat, Reset) {
  RunningStat s;
  s.add(1.0);
  s.add(2.0);
  s.reset();
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // clamps to bucket 0
  h.add(0.5);    // bucket 0
  h.add(9.5);    // bucket 9
  h.add(100.0);  // clamps to bucket 9
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(9), 2u);
  EXPECT_EQ(h.total(), 4u);
}

TEST(Histogram, PercentileMonotone) {
  Histogram h(0.0, 100.0, 100);
  for (int i = 0; i < 1000; ++i) h.add(i % 100);
  EXPECT_LE(h.percentile(0.25), h.percentile(0.5));
  EXPECT_LE(h.percentile(0.5), h.percentile(0.95));
  EXPECT_NEAR(h.percentile(0.5), 50.0, 2.0);
}

TEST(TimeSeries, RecordsAll) {
  TimeSeries ts(1024);
  for (int i = 0; i < 100; ++i) ts.add(i, i * 2.0);
  ASSERT_EQ(ts.size(), 100u);
  EXPECT_DOUBLE_EQ(ts.values()[7], 14.0);
}

TEST(TimeSeries, DecimatesWhenFull) {
  TimeSeries ts(16);
  for (int i = 0; i < 10000; ++i) ts.add(i, i);
  EXPECT_LE(ts.size(), 16u);
  EXPECT_GE(ts.size(), 4u);
  // Retained points are still time-ordered.
  for (std::size_t i = 1; i < ts.size(); ++i)
    EXPECT_LT(ts.times()[i - 1], ts.times()[i]);
}

// Hand-built checkpoint payloads: max_points, stride, seen, times, values.
std::string series_state(std::uint64_t max_points, std::uint64_t stride,
                         std::size_t points) {
  ByteWriter w;
  w.u64(max_points);
  w.u64(stride);
  w.u64(points * stride);
  const std::vector<double> v(points, 1.0);
  w.f64_vec(v);
  w.f64_vec(v);
  return w.take();
}

TEST(TimeSeries, LoadStateRejectsStatesAddCannotContinue) {
  {
    const std::string good = series_state(4, 2, 3);
    ByteReader r(good);
    TimeSeries ts;
    ts.load_state(r);
    EXPECT_TRUE(r.ok() && r.empty());
    EXPECT_EQ(ts.size(), 3u);
  }
  for (const std::string& bad :
       {series_state(4, 0, 3),    // zero stride: add() divides by it
        series_state(1, 1, 1),    // fewer than two points allowed
        series_state(4, 1, 5)}) {  // more points than allowed
    ByteReader r(bad);
    TimeSeries ts;
    ts.load_state(r);
    EXPECT_FALSE(r.ok());
  }
}

}  // namespace
}  // namespace ptb
