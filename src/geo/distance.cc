#include "geo/distance.h"

#include <cmath>

#include "util/logging.h"

namespace dasc::geo {

namespace {
constexpr double kEarthRadiusKm = 6371.0088;
double DegToRad(double deg) { return deg * M_PI / 180.0; }
}  // namespace

double ManhattanDistance(const Point& a, const Point& b) {
  return std::fabs(a.x - b.x) + std::fabs(a.y - b.y);
}

double HaversineDistanceKm(const Point& a, const Point& b) {
  const double lat1 = DegToRad(a.y);
  const double lat2 = DegToRad(b.y);
  const double dlat = lat2 - lat1;
  const double dlon = DegToRad(b.x - a.x);
  const double h = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) *
                       std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::sqrt(std::min(1.0, h)));
}

double Distance(DistanceKind kind, const Point& a, const Point& b) {
  switch (kind) {
    case DistanceKind::kEuclidean:
      return EuclideanDistance(a, b);
    case DistanceKind::kManhattan:
      return ManhattanDistance(a, b);
    case DistanceKind::kHaversineKm:
      return HaversineDistanceKm(a, b);
    case DistanceKind::kRoadNetwork:
      DASC_CHECK(false)
          << "kRoadNetwork needs a network; use core::PairDistance";
      return 0.0;
  }
  DASC_CHECK(false) << "unknown DistanceKind";
  return 0.0;
}

}  // namespace dasc::geo
