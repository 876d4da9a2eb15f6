// Static 2-d tree for radius and nearest-neighbor queries.
//
// Suited to non-uniform (clustered) point sets, where a uniform grid
// degenerates: construction is O(n log n), radius queries are
// output-sensitive, nearest-neighbor is O(log n) expected.
#ifndef DASC_GEO_KDTREE_H_
#define DASC_GEO_KDTREE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geo/point.h"

namespace dasc::geo {

class KdTree {
 public:
  // Builds over `points`; element i keeps external id i.
  explicit KdTree(const std::vector<Point>& points);

  // Appends ids of all points within `radius` (inclusive, Euclidean) of
  // `center` to `out`, in unspecified order.
  void QueryRadius(const Point& center, double radius,
                   std::vector<int32_t>* out) const;
  std::vector<int32_t> QueryRadius(const Point& center, double radius) const;

  // Id of the closest point to `center` (ties broken arbitrarily), or -1 on
  // an empty tree.
  int32_t Nearest(const Point& center) const;

  size_t size() const { return points_.size(); }

 private:
  struct Node {
    int32_t point = -1;  // index into points_
    int32_t left = -1;
    int32_t right = -1;
    bool split_x = true;
  };

  int32_t Build(std::vector<int32_t>& ids, int lo, int hi, bool split_x);
  void RadiusSearch(int32_t node, const Point& center, double r2,
                    std::vector<int32_t>* out) const;
  void NearestSearch(int32_t node, const Point& center, int32_t* best,
                     double* best_d2) const;

  std::vector<Point> points_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
};

}  // namespace dasc::geo

#endif  // DASC_GEO_KDTREE_H_
