#include "preprocess/gmm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <sstream>
#include <string>
#include <utility>

namespace lte::preprocess {
namespace {

// The (component, normalized value) pair EncodeInto writes for x.
std::pair<int64_t, double> Encoded(const GaussianMixture& g, double x) {
  std::vector<double> slots(static_cast<size_t>(g.num_components()) + 1, 0.0);
  g.EncodeInto(x, slots.data());
  const auto hot = std::find(slots.begin(), slots.end() - 1, 1.0);
  return {hot - slots.begin(), slots.back()};
}

std::vector<double> BimodalSample(Rng* rng, int n_per_mode = 500) {
  std::vector<double> v;
  for (int i = 0; i < n_per_mode; ++i) v.push_back(rng->Normal(0.0, 0.5));
  for (int i = 0; i < n_per_mode; ++i) v.push_back(rng->Normal(10.0, 0.5));
  return v;
}

TEST(GmmTest, RecoversBimodalMeans) {
  Rng rng(1);
  const std::vector<double> v = BimodalSample(&rng);
  GaussianMixture g;
  ASSERT_TRUE(g.Fit(v, 2, &rng).ok());
  std::vector<double> means = {g.components()[0].mean, g.components()[1].mean};
  std::sort(means.begin(), means.end());
  EXPECT_NEAR(means[0], 0.0, 0.3);
  EXPECT_NEAR(means[1], 10.0, 0.3);
}

TEST(GmmTest, WeightsSumToOne) {
  Rng rng(2);
  const std::vector<double> v = BimodalSample(&rng);
  GaussianMixture g;
  ASSERT_TRUE(g.Fit(v, 3, &rng).ok());
  double total = 0.0;
  for (const auto& c : g.components()) total += c.weight;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(GmmTest, MostLikelyComponentSeparatesModes) {
  Rng rng(3);
  const std::vector<double> v = BimodalSample(&rng);
  GaussianMixture g;
  ASSERT_TRUE(g.Fit(v, 2, &rng).ok());
  EXPECT_NE(Encoded(g, 0.0).first, Encoded(g, 10.0).first);
  EXPECT_EQ(Encoded(g, 0.2).first, Encoded(g, -0.2).first);
}

TEST(GmmTest, NormalizeWithinStaysInUnitInterval) {
  Rng rng(4);
  const std::vector<double> v = BimodalSample(&rng);
  GaussianMixture g;
  ASSERT_TRUE(g.Fit(v, 2, &rng).ok());
  for (double x : {-5.0, 0.0, 5.0, 10.0, 20.0}) {
    const double n = Encoded(g, x).second;
    EXPECT_GE(n, 0.0);
    EXPECT_LE(n, 1.0);
  }
  // The component mean normalizes to the middle of its range.
  const int64_t c = Encoded(g, 0.0).first;
  const double mean = g.components()[static_cast<size_t>(c)].mean;
  EXPECT_EQ(Encoded(g, mean).first, c);
  EXPECT_NEAR(Encoded(g, mean).second, 0.5, 1e-9);
}

TEST(GmmTest, MixtureLikelihoodBeatsSingleGaussianOnBimodalData) {
  Rng rng(5);
  const std::vector<double> v = BimodalSample(&rng);
  GaussianMixture g2;
  GaussianMixture g1;
  ASSERT_TRUE(g2.Fit(v, 2, &rng).ok());
  ASSERT_TRUE(g1.Fit(v, 1, &rng).ok());
  EXPECT_GT(g2.MeanLogLikelihood(v), g1.MeanLogLikelihood(v) + 0.5);
}

TEST(GmmTest, InvalidArguments) {
  Rng rng(6);
  GaussianMixture g;
  EXPECT_FALSE(g.Fit({1.0, 2.0}, 0, &rng).ok());
  EXPECT_FALSE(g.Fit({1.0}, 2, &rng).ok());
}

TEST(GmmTest, ConstantDataDoesNotCrash) {
  Rng rng(7);
  const std::vector<double> v(100, 5.0);
  GaussianMixture g;
  ASSERT_TRUE(g.Fit(v, 2, &rng).ok());
  EXPECT_EQ(Encoded(g, 5.0), Encoded(g, 5.0));  // Stable.
  EXPECT_GE(Encoded(g, 5.0).second, 0.0);
}

TEST(GmmTest, LoadRebuildsTheEncodeConstants) {
  Rng rng(8);
  const std::vector<double> v = BimodalSample(&rng);
  GaussianMixture g;
  ASSERT_TRUE(g.Fit(v, 3, &rng).ok());
  std::stringstream buf;
  BinaryWriter w(&buf);
  g.Save(&w);
  GaussianMixture loaded;
  BinaryReader r(&buf);
  ASSERT_TRUE(loaded.Load(&r).ok());
  for (const double x : {-3.0, 0.0, 0.7, 5.0, 9.9, 10.0, 14.0}) {
    std::vector<double> a(4, 0.0);
    std::vector<double> b(4, 0.0);
    g.EncodeInto(x, a.data());
    loaded.EncodeInto(x, b.data());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), 4 * sizeof(double)), 0) << x;
  }
}

TEST(GmmTest, LoadRejectsImplausibleComponentCount) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(uint64_t{1} << 61);  // Would be a 2^61-element allocation.
  w.WriteDouble(1.0);
  BinaryReader r(&buf);
  GaussianMixture g;
  EXPECT_EQ(g.Load(&r).code(), StatusCode::kIoError);
}

TEST(GmmTest, LoadOfTruncatedComponentsFailsCleanly) {
  std::stringstream buf;
  BinaryWriter w(&buf);
  w.WriteU64(1000);  // Claims far more components than the stream holds.
  for (int i = 0; i < 3; ++i) w.WriteDouble(1.0);
  BinaryReader r(&buf);
  GaussianMixture g;
  EXPECT_FALSE(g.Load(&r).ok());
  EXPECT_EQ(g.num_components(), 0);
}

}  // namespace
}  // namespace lte::preprocess
