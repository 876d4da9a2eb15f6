// Distance functions over geo::Point.
//
// The DA-SC definitions use Euclidean distance but explicitly allow other
// metrics ("our proposed approaches can also be used with other distance
// functions"); everything downstream takes a DistanceKind.
#ifndef DASC_GEO_DISTANCE_H_
#define DASC_GEO_DISTANCE_H_

#include <cmath>

#include "geo/point.h"

namespace dasc::geo {

enum class DistanceKind {
  kEuclidean,    // sqrt(dx^2 + dy^2); the paper's default.
  kManhattan,    // |dx| + |dy|; grid/road-network proxy.
  kHaversineKm,  // great-circle km treating (x, y) as (lon, lat) degrees.
  kRoadNetwork,  // shortest path through a geo::RoadNetwork (needs one;
                 // dispatched by core::PairDistance, not geo::Distance).
};

// Inline so the candidate index's probe loop (core/batch.cc) runs this exact
// arithmetic without a call.
inline double EuclideanDistance(const Point& a, const Point& b) {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}
double ManhattanDistance(const Point& a, const Point& b);
double HaversineDistanceKm(const Point& a, const Point& b);

// Dispatches on `kind`.
double Distance(DistanceKind kind, const Point& a, const Point& b);

}  // namespace dasc::geo

#endif  // DASC_GEO_DISTANCE_H_
