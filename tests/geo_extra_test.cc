// Tests for the road network distance substrate.
#include <gtest/gtest.h>

#include <cmath>

#include "geo/distance.h"
#include "geo/road_network.h"
#include "util/rng.h"

namespace dasc::geo {
namespace {

// ----------------------------------------------------------- RoadNetwork ---

RoadNetwork::Options SmallOptions() {
  RoadNetwork::Options options;
  options.grid_width = 8;
  options.grid_height = 8;
  options.seed = 5;
  return options;
}

TEST(RoadNetworkTest, BuildsConnectedGraph) {
  const RoadNetwork network =
      RoadNetwork::MakeGrid(0, 0, 1, 1, SmallOptions());
  EXPECT_EQ(network.num_nodes(), 64);
  // Spanning tree guarantees >= n-1 edges.
  EXPECT_GE(network.num_edges(), 63);
  // Every pair of corners must be reachable (finite distance).
  EXPECT_TRUE(std::isfinite(network.Distance({0, 0}, {1, 1})));
  EXPECT_TRUE(std::isfinite(network.Distance({1, 0}, {0, 1})));
}

TEST(RoadNetworkTest, DistanceAtLeastEuclideanBetweenJunctions) {
  const RoadNetwork network =
      RoadNetwork::MakeGrid(0, 0, 1, 1, SmallOptions());
  util::Rng rng(13);
  for (int iter = 0; iter < 50; ++iter) {
    // Query at junction coordinates so snapping adds nothing.
    const int a = static_cast<int>(rng.UniformInt(0, 63));
    const int b = static_cast<int>(rng.UniformInt(0, 63));
    const double road = network.Distance(network.node(a), network.node(b));
    const double euclid = EuclideanDistance(network.node(a), network.node(b));
    EXPECT_GE(road, euclid - 1e-9);
  }
}

TEST(RoadNetworkTest, SymmetricDistances) {
  const RoadNetwork network =
      RoadNetwork::MakeGrid(0, 0, 2, 1, SmallOptions());
  util::Rng rng(17);
  for (int iter = 0; iter < 30; ++iter) {
    const Point a{rng.UniformDouble(0, 2), rng.UniformDouble(0, 1)};
    const Point b{rng.UniformDouble(0, 2), rng.UniformDouble(0, 1)};
    EXPECT_NEAR(network.Distance(a, b), network.Distance(b, a), 1e-9);
  }
}

TEST(RoadNetworkTest, SamePointNearZero) {
  const RoadNetwork network =
      RoadNetwork::MakeGrid(0, 0, 1, 1, SmallOptions());
  const Point p{0.31, 0.77};
  // Walking to the nearest junction and back: 2x the snap distance.
  EXPECT_LE(network.Distance(p, p), 2.0 * 0.2);
}

TEST(RoadNetworkTest, SnapToNodeFindsNearestJunction) {
  const RoadNetwork network =
      RoadNetwork::MakeGrid(0, 0, 1, 1, SmallOptions());
  for (int id = 0; id < network.num_nodes(); ++id) {
    EXPECT_EQ(network.SnapToNode(network.node(id)), id);
  }
  // Points outside the box clamp to boundary junctions.
  EXPECT_EQ(network.SnapToNode({-5, -5}), network.SnapToNode({0, 0}));
}

TEST(RoadNetworkTest, NoDetourEqualsManhattanLowerBound) {
  // With detour 1.0 and nothing blocked, a full grid's junction-to-junction
  // distance equals the Manhattan distance.
  RoadNetwork::Options options;
  options.grid_width = 6;
  options.grid_height = 6;
  options.detour_min = 1.0;
  options.detour_max = 1.0;
  options.blocked_fraction = 0.0;
  const RoadNetwork network = RoadNetwork::MakeGrid(0, 0, 5, 5, options);
  for (int a = 0; a < 36; a += 7) {
    for (int b = 0; b < 36; b += 5) {
      EXPECT_NEAR(network.Distance(network.node(a), network.node(b)),
                  ManhattanDistance(network.node(a), network.node(b)), 1e-9);
    }
  }
}

TEST(RoadNetworkTest, BlockedStreetsLengthenPaths) {
  RoadNetwork::Options open = SmallOptions();
  open.blocked_fraction = 0.0;
  open.detour_min = open.detour_max = 1.0;
  RoadNetwork::Options blocked = open;
  blocked.blocked_fraction = 0.9;
  const RoadNetwork free_net = RoadNetwork::MakeGrid(0, 0, 1, 1, open);
  const RoadNetwork blocked_net = RoadNetwork::MakeGrid(0, 0, 1, 1, blocked);
  double free_total = 0, blocked_total = 0;
  util::Rng rng(23);
  for (int iter = 0; iter < 40; ++iter) {
    const int a = static_cast<int>(rng.UniformInt(0, 63));
    const int b = static_cast<int>(rng.UniformInt(0, 63));
    free_total += free_net.Distance(free_net.node(a), free_net.node(b));
    blocked_total +=
        blocked_net.Distance(blocked_net.node(a), blocked_net.node(b));
  }
  EXPECT_GE(blocked_total, free_total);
}

}  // namespace
}  // namespace dasc::geo
