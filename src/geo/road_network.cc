#include "geo/road_network.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>

#include "geo/distance.h"
#include "util/logging.h"
#include "util/rng.h"

namespace dasc::geo {

namespace {

// Union-find for the spanning-tree construction.
class DisjointSets {
 public:
  explicit DisjointSets(int n) : parent_(static_cast<size_t>(n)) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  bool Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return false;
    parent_[static_cast<size_t>(a)] = b;
    return true;
  }

 private:
  std::vector<int> parent_;
};

}  // namespace

RoadNetwork RoadNetwork::MakeGrid(double min_x, double min_y, double max_x,
                                  double max_y, const Options& options) {
  DASC_CHECK_GE(options.grid_width, 2);
  DASC_CHECK_GE(options.grid_height, 2);
  DASC_CHECK_GT(max_x, min_x);
  DASC_CHECK_GT(max_y, min_y);
  DASC_CHECK_GE(options.detour_min, 1.0);
  DASC_CHECK_GE(options.detour_max, options.detour_min);
  DASC_CHECK_GE(options.blocked_fraction, 0.0);
  DASC_CHECK_LE(options.blocked_fraction, 1.0);

  RoadNetwork network;
  network.width_ = options.grid_width;
  network.height_ = options.grid_height;
  network.min_x_ = min_x;
  network.min_y_ = min_y;
  network.step_x_ = (max_x - min_x) / (options.grid_width - 1);
  network.step_y_ = (max_y - min_y) / (options.grid_height - 1);

  const int n = options.grid_width * options.grid_height;
  network.nodes_.reserve(static_cast<size_t>(n));
  for (int row = 0; row < options.grid_height; ++row) {
    for (int col = 0; col < options.grid_width; ++col) {
      network.nodes_.push_back(
          {min_x + col * network.step_x_, min_y + row * network.step_y_});
    }
  }
  network.adjacency_.resize(static_cast<size_t>(n));

  // Candidate streets: 4-neighbor grid edges, shuffled. A random spanning
  // tree is always kept; the remainder are blocked with the configured
  // probability, so the network stays connected but is not a plain grid.
  util::Rng rng(options.seed);
  struct Candidate {
    int a, b;
  };
  std::vector<Candidate> candidates;
  auto id = [&](int col, int row) { return row * options.grid_width + col; };
  for (int row = 0; row < options.grid_height; ++row) {
    for (int col = 0; col < options.grid_width; ++col) {
      if (col + 1 < options.grid_width) {
        candidates.push_back({id(col, row), id(col + 1, row)});
      }
      if (row + 1 < options.grid_height) {
        candidates.push_back({id(col, row), id(col, row + 1)});
      }
    }
  }
  rng.Shuffle(candidates);
  DisjointSets components(n);
  for (const Candidate& c : candidates) {
    const bool tree_edge = components.Union(c.a, c.b);
    if (!tree_edge && rng.Bernoulli(options.blocked_fraction)) continue;
    const double detour =
        rng.UniformDouble(options.detour_min, options.detour_max);
    const double length =
        EuclideanDistance(network.nodes_[static_cast<size_t>(c.a)],
                          network.nodes_[static_cast<size_t>(c.b)]) *
        detour;
    network.adjacency_[static_cast<size_t>(c.a)].push_back({c.b, length});
    network.adjacency_[static_cast<size_t>(c.b)].push_back({c.a, length});
    ++network.num_edges_;
  }
  return network;
}

int RoadNetwork::SnapToNode(const Point& p) const {
  const int col = std::clamp(
      static_cast<int>((p.x - min_x_) / step_x_ + 0.5), 0, width_ - 1);
  const int row = std::clamp(
      static_cast<int>((p.y - min_y_) / step_y_ + 0.5), 0, height_ - 1);
  return row * width_ + col;
}

const std::vector<double>& RoadNetwork::ShortestPathsFrom(int source) const {
  auto it = sssp_cache_.find(source);
  if (it != sssp_cache_.end()) return it->second;
  if (sssp_cache_.size() >= kMaxCachedSources) sssp_cache_.clear();

  std::vector<double> dist(nodes_.size(),
                           std::numeric_limits<double>::infinity());
  using Entry = std::pair<double, int>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> frontier;
  dist[static_cast<size_t>(source)] = 0.0;
  frontier.emplace(0.0, source);
  while (!frontier.empty()) {
    const auto [d, u] = frontier.top();
    frontier.pop();
    if (d > dist[static_cast<size_t>(u)]) continue;
    for (const Edge& e : adjacency_[static_cast<size_t>(u)]) {
      const double candidate = d + e.length;
      if (candidate < dist[static_cast<size_t>(e.to)]) {
        dist[static_cast<size_t>(e.to)] = candidate;
        frontier.emplace(candidate, e.to);
      }
    }
  }
  return sssp_cache_.emplace(source, std::move(dist)).first->second;
}

double RoadNetwork::Distance(const Point& a, const Point& b) const {
  const int na = SnapToNode(a);
  const int nb = SnapToNode(b);
  const double walk_a = EuclideanDistance(a, node(na));
  const double walk_b = EuclideanDistance(b, node(nb));
  if (na == nb) return walk_a + walk_b;
  double through = 0.0;
  {
    const std::lock_guard<std::mutex> lock(*cache_mu_);
    through = ShortestPathsFrom(na)[static_cast<size_t>(nb)];
  }
  return walk_a + through + walk_b;
}

}  // namespace dasc::geo
