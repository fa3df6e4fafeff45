#include "geometry/hull.h"

#include <algorithm>
#include <limits>

#include "geometry/segment.h"

namespace spr {

std::vector<Vec2> convex_hull(std::vector<Vec2> points) {
  std::sort(points.begin(), points.end(), [](Vec2 a, Vec2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const std::size_t n = points.size();
  if (n < 3) return points;

  std::vector<Vec2> hull(2 * n);
  std::size_t k = 0;
  // Lower chain.
  for (std::size_t i = 0; i < n; ++i) {
    while (k >= 2 && orient(hull[k - 2], hull[k - 1], points[i]) <= 0.0) --k;
    hull[k++] = points[i];
  }
  // Upper chain.
  for (std::size_t i = n - 1, t = k + 1; i-- > 0;) {
    while (k >= t && orient(hull[k - 2], hull[k - 1], points[i]) <= 0.0) --k;
    hull[k++] = points[i];
  }
  hull.resize(k - 1);  // last point equals the first
  return hull;
}

double distance_to_hull_boundary(const std::vector<Vec2>& hull, Vec2 p) {
  const std::size_t n = hull.size();
  if (n == 0) return std::numeric_limits<double>::infinity();
  if (n == 1) return distance(hull[0], p);
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    best = std::min(best, point_segment_distance(p, {hull[j], hull[i]}));
  }
  return best;
}

}  // namespace spr
