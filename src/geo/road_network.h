// Synthetic road network with shortest-path distances.
//
// The paper notes that its approaches "can also be used with other distance
// functions (e.g., road-network distance)". This module provides that
// substrate: a connected grid road graph over a bounding box whose edge
// lengths carry per-street detour factors (and some blocked streets), with
// point-to-point distances computed by snapping to the nearest junction and
// running cached single-source Dijkstra.
#ifndef DASC_GEO_ROAD_NETWORK_H_
#define DASC_GEO_ROAD_NETWORK_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "geo/point.h"

namespace dasc::geo {

class RoadNetwork {
 public:
  struct Options {
    int grid_width = 48;   // junction columns
    int grid_height = 48;  // junction rows
    // Edge length = Euclidean length * U[detour_min, detour_max].
    double detour_min = 1.0;
    double detour_max = 1.5;
    // Fraction of non-spanning-tree streets removed (connectivity is always
    // preserved via a random spanning tree).
    double blocked_fraction = 0.15;
    uint64_t seed = 42;
  };

  // Builds a connected grid network covering [min_x, max_x] x [min_y, max_y].
  static RoadNetwork MakeGrid(double min_x, double min_y, double max_x,
                              double max_y, const Options& options);

  // Network distance between arbitrary points: walk to the nearest junction,
  // shortest path through the network, walk from the nearest junction.
  // Thread-safe: the internal SSSP cache is guarded by a mutex, so the
  // parallel candidate build may probe one network from every pool thread.
  double Distance(const Point& a, const Point& b) const;

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  int64_t num_edges() const { return num_edges_; }
  const Point& node(int id) const { return nodes_[static_cast<size_t>(id)]; }

  // Nearest junction to `p` (O(1), grid arithmetic).
  int SnapToNode(const Point& p) const;

 private:
  RoadNetwork() = default;

  // Requires *cache_mu_ held; the reference dies with the next cache clear.
  const std::vector<double>& ShortestPathsFrom(int source) const;

  struct Edge {
    int to;
    double length;
  };

  int width_ = 0, height_ = 0;
  double min_x_ = 0, min_y_ = 0, step_x_ = 1, step_y_ = 1;
  std::vector<Point> nodes_;
  std::vector<std::vector<Edge>> adjacency_;
  int64_t num_edges_ = 0;

  // SSSP cache; bounded, cleared wholesale when it overflows. Guarded by
  // *cache_mu_ (held by pointer so the network stays movable).
  mutable std::unordered_map<int, std::vector<double>> sssp_cache_;
  std::unique_ptr<std::mutex> cache_mu_ = std::make_unique<std::mutex>();
  static constexpr size_t kMaxCachedSources = 2048;
};

}  // namespace dasc::geo

#endif  // DASC_GEO_ROAD_NETWORK_H_
