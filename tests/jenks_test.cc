#include "preprocess/jenks.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/rng.h"

namespace lte::preprocess {
namespace {

// The (interval, normalized value) pair EncodeInto writes for x.
std::pair<int64_t, double> Encoded(const JenksBreaks& j, double x) {
  std::vector<double> slots(static_cast<size_t>(j.num_intervals()) + 1, 0.0);
  j.EncodeInto(x, slots.data());
  const auto hot = std::find(slots.begin(), slots.end() - 1, 1.0);
  return {hot - slots.begin(), slots.back()};
}

TEST(JenksTest, FindsObviousBreaks) {
  // Three tight value groups.
  std::vector<double> v;
  for (int i = 0; i < 30; ++i) v.push_back(1.0 + 0.01 * i);
  for (int i = 0; i < 30; ++i) v.push_back(50.0 + 0.01 * i);
  for (int i = 0; i < 30; ++i) v.push_back(100.0 + 0.01 * i);
  JenksBreaks j;
  ASSERT_TRUE(j.Fit(v, 3).ok());
  EXPECT_EQ(j.num_intervals(), 3);
  EXPECT_EQ(Encoded(j, 1.1).first, 0);
  EXPECT_EQ(Encoded(j, 50.1).first, 1);
  EXPECT_EQ(Encoded(j, 100.1).first, 2);
  EXPECT_GT(j.goodness_of_fit(), 0.99);
}

TEST(JenksTest, BoundsArePartition) {
  Rng rng(1);
  std::vector<double> v;
  for (int i = 0; i < 200; ++i) v.push_back(rng.Uniform(0, 100));
  JenksBreaks j;
  ASSERT_TRUE(j.Fit(v, 5).ok());
  const auto& lo = j.lower_bounds();
  const auto& hi = j.upper_bounds();
  ASSERT_EQ(lo.size(), 5u);
  for (size_t i = 0; i < 5; ++i) EXPECT_LE(lo[i], hi[i]);
  for (size_t i = 1; i < 5; ++i) EXPECT_LE(hi[i - 1], lo[i]);
}

TEST(JenksTest, OutOfRangeClampsToEdgeIntervals) {
  std::vector<double> v = {1, 2, 3, 10, 11, 12};
  JenksBreaks j;
  ASSERT_TRUE(j.Fit(v, 2).ok());
  EXPECT_EQ(Encoded(j, -100.0).first, 0);
  EXPECT_EQ(Encoded(j, 1000.0).first, 1);
}

TEST(JenksTest, NormalizeWithinUnitInterval) {
  std::vector<double> v = {0, 1, 2, 3, 4, 10, 11, 12, 13, 14};
  JenksBreaks j;
  ASSERT_TRUE(j.Fit(v, 2).ok());
  for (double x : {-1.0, 0.0, 2.0, 7.0, 12.0, 20.0}) {
    const double n = Encoded(j, x).second;
    EXPECT_GE(n, 0.0);
    EXPECT_LE(n, 1.0);
  }
  EXPECT_EQ(Encoded(j, 2.0).first, 0);
  EXPECT_DOUBLE_EQ(Encoded(j, 2.0).second, 0.5);
}

TEST(JenksTest, SingleInterval) {
  std::vector<double> v = {5, 6, 7};
  JenksBreaks j;
  ASSERT_TRUE(j.Fit(v, 1).ok());
  EXPECT_EQ(Encoded(j, 6.0).first, 0);
  EXPECT_DOUBLE_EQ(j.goodness_of_fit(), 0.0);  // No split, no gain.
}

TEST(JenksTest, InvalidArguments) {
  JenksBreaks j;
  EXPECT_FALSE(j.Fit({1.0, 2.0}, 0).ok());
  EXPECT_FALSE(j.Fit({1.0}, 2).ok());
}

TEST(JenksTest, IdenticalValues) {
  std::vector<double> v(50, 42.0);
  JenksBreaks j;
  ASSERT_TRUE(j.Fit(v, 3).ok());
  EXPECT_GE(Encoded(j, 42.0).first, 0);
  EXPECT_LT(Encoded(j, 42.0).first, 3);
}

TEST(JenksTest, GoodnessImprovesWithMoreIntervals) {
  Rng rng(2);
  std::vector<double> v;
  for (int i = 0; i < 300; ++i) v.push_back(rng.Uniform(0, 100));
  JenksBreaks j2;
  JenksBreaks j8;
  ASSERT_TRUE(j2.Fit(v, 2).ok());
  ASSERT_TRUE(j8.Fit(v, 8).ok());
  EXPECT_GT(j8.goodness_of_fit(), j2.goodness_of_fit());
}

TEST(JenksTest, LoadRejectsUpperBoundsOutOfOrder) {
  // EncodeInto counts the upper bounds below x, which finds the interval
  // containing x only for non-decreasing bounds.
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteDoubleVector({0.0, 5.0, 1.0});
  w.WriteDoubleVector({4.0, 9.0, 2.0});
  w.WriteDouble(0.5);
  BinaryReader r(&buf);
  JenksBreaks j;
  EXPECT_EQ(j.Load(&r).code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace lte::preprocess
