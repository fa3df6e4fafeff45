#include "geometry/hull.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/segment.h"

namespace spr {

namespace {

bool x_then_y(Vec2 a, Vec2 b) noexcept {
  return a.x < b.x || (a.x == b.x && a.y < b.y);
}

/// Sorts `points` by `x_then_y` through one bucket per point over the x
/// range. The bucket of x, a subtraction, a positive scaling and a
/// truncation, is monotone in x in IEEE arithmetic, so equal x share a
/// bucket and the sorted buckets concatenate to a sorted sequence: the one
/// std::sort gives, up to the order of equal points. A uniform field puts
/// about one point in a bucket, so the sort is linear in expectation; a
/// clustered one falls back to std::sort inside its buckets.
void sort_x_then_y(std::vector<Vec2>& points) {
  const std::size_t n = points.size();
  if (n < 2) return;
  const auto [lo, hi] = std::minmax_element(
      points.begin(), points.end(), [](Vec2 a, Vec2 b) { return a.x < b.x; });
  const double left = lo->x;
  const double span = hi->x - left;
  const double scale = static_cast<double>(n - 1) / span;
  if (!(std::isfinite(span) && span > 0.0 && std::isfinite(scale))) {
    std::sort(points.begin(), points.end(), x_then_y);
    return;
  }
  auto bucket = [&](double x) {
    return std::min(n - 1, static_cast<std::size_t>((x - left) * scale));
  };
  std::vector<std::size_t> start(n + 1, 0);
  for (const Vec2 p : points) ++start[bucket(p.x) + 1];
  for (std::size_t b = 0; b < n; ++b) start[b + 1] += start[b];
  std::vector<Vec2> sorted(n);
  std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
  for (const Vec2 p : points) sorted[cursor[bucket(p.x)]++] = p;
  for (std::size_t b = 0; b < n; ++b) {
    if (start[b + 1] - start[b] > 1) {
      std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(start[b]),
                sorted.begin() + static_cast<std::ptrdiff_t>(start[b + 1]),
                x_then_y);
    }
  }
  points.swap(sorted);
}

}  // namespace

std::vector<Vec2> convex_hull(std::vector<Vec2> points) {
  sort_x_then_y(points);
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
