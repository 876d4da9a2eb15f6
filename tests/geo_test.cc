// Unit + property tests for geo distances.
#include <gtest/gtest.h>

#include <cmath>

#include "geo/distance.h"
#include "util/rng.h"

namespace dasc::geo {
namespace {

// -------------------------------------------------------------- Distance ---

TEST(DistanceTest, EuclideanBasics) {
  EXPECT_DOUBLE_EQ(EuclideanDistance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(EuclideanDistance({1, 1}, {1, 1}), 0.0);
}

TEST(DistanceTest, ManhattanBasics) {
  EXPECT_DOUBLE_EQ(ManhattanDistance({0, 0}, {3, 4}), 7.0);
  EXPECT_DOUBLE_EQ(ManhattanDistance({-1, -1}, {1, 1}), 4.0);
}

TEST(DistanceTest, HaversineKnownDistance) {
  // Hong Kong Central (114.158, 22.285) to Tsim Sha Tsui (114.172, 22.297):
  // roughly 1.9-2.0 km.
  const double d = HaversineDistanceKm({114.158, 22.285}, {114.172, 22.297});
  EXPECT_GT(d, 1.5);
  EXPECT_LT(d, 2.5);
}

TEST(DistanceTest, HaversineZero) {
  EXPECT_NEAR(HaversineDistanceKm({114.0, 22.0}, {114.0, 22.0}), 0.0, 1e-9);
}

TEST(DistanceTest, DispatchMatchesDirectCalls) {
  const Point a{0.1, 0.2}, b{0.5, 0.9};
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kEuclidean, a, b),
                   EuclideanDistance(a, b));
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kManhattan, a, b),
                   ManhattanDistance(a, b));
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kHaversineKm, a, b),
                   HaversineDistanceKm(a, b));
}

// Metric properties on random points.
class DistancePropertyTest : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(DistancePropertyTest, SymmetryAndTriangleInequality) {
  util::Rng rng(99);
  for (int iter = 0; iter < 200; ++iter) {
    const Point a{rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)};
    const Point b{rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)};
    const Point c{rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)};
    const double ab = Distance(GetParam(), a, b);
    const double ba = Distance(GetParam(), b, a);
    const double ac = Distance(GetParam(), a, c);
    const double cb = Distance(GetParam(), c, b);
    EXPECT_NEAR(ab, ba, 1e-12);
    EXPECT_LE(ab, ac + cb + 1e-9);
    EXPECT_GE(ab, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, DistancePropertyTest,
                         ::testing::Values(DistanceKind::kEuclidean,
                                           DistanceKind::kManhattan,
                                           DistanceKind::kHaversineKm));

}  // namespace
}  // namespace dasc::geo
