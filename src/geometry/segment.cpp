#include "geometry/segment.h"

#include <algorithm>
#include <cmath>

#include "geometry/rect.h"

namespace spr {

bool on_segment(const Segment& s, Vec2 p, double eps) noexcept {
  return point_segment_distance(p, s) <= eps;
}

namespace {
int sign_of(double v, double eps = 1e-12) noexcept {
  if (v > eps) return 1;
  if (v < -eps) return -1;
  return 0;
}

bool bounding_boxes_overlap(const Segment& s1, const Segment& s2) noexcept {
  auto [ax0, ax1] = std::minmax(s1.a.x, s1.b.x);
  auto [ay0, ay1] = std::minmax(s1.a.y, s1.b.y);
  auto [bx0, bx1] = std::minmax(s2.a.x, s2.b.x);
  auto [by0, by1] = std::minmax(s2.a.y, s2.b.y);
  return ax0 <= bx1 && bx0 <= ax1 && ay0 <= by1 && by0 <= ay1;
}
}  // namespace

bool segments_intersect(const Segment& s1, const Segment& s2) noexcept {
  int d1 = sign_of(orient(s2.a, s2.b, s1.a));
  int d2 = sign_of(orient(s2.a, s2.b, s1.b));
  int d3 = sign_of(orient(s1.a, s1.b, s2.a));
  int d4 = sign_of(orient(s1.a, s1.b, s2.b));
  if (((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
      ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0))) {
    return true;
  }
  // Collinear / endpoint-touching cases.
  if (d1 == 0 && d2 == 0 && d3 == 0 && d4 == 0) return bounding_boxes_overlap(s1, s2);
  if (d1 == 0 && on_segment(s2, s1.a)) return true;
  if (d2 == 0 && on_segment(s2, s1.b)) return true;
  if (d3 == 0 && on_segment(s1, s2.a)) return true;
  if (d4 == 0 && on_segment(s1, s2.b)) return true;
  return false;
}

bool segments_cross_properly(const Segment& s1, const Segment& s2) noexcept {
  int d1 = sign_of(orient(s2.a, s2.b, s1.a));
  int d2 = sign_of(orient(s2.a, s2.b, s1.b));
  int d3 = sign_of(orient(s1.a, s1.b, s2.a));
  int d4 = sign_of(orient(s1.a, s1.b, s2.b));
  return ((d1 > 0 && d2 < 0) || (d1 < 0 && d2 > 0)) &&
         ((d3 > 0 && d4 < 0) || (d3 < 0 && d4 > 0));
}

std::optional<Vec2> segment_intersection(const Segment& s1, const Segment& s2) noexcept {
  if (!segments_intersect(s1, s2)) return std::nullopt;
  Vec2 r = s1.b - s1.a;
  Vec2 s = s2.b - s2.a;
  double denom = r.cross(s);
  if (std::abs(denom) < 1e-12) {
    // Collinear overlap: return an endpoint that lies on the other segment.
    for (Vec2 p : {s1.a, s1.b, s2.a, s2.b}) {
      if (on_segment(s1, p) && on_segment(s2, p)) return p;
    }
    return std::nullopt;
  }
  double t = (s2.a - s1.a).cross(s) / denom;
  return s1.a + r * t;
}

double point_segment_distance(Vec2 p, const Segment& s) noexcept {
  Vec2 ab = s.b - s.a;
  double len_sq = ab.norm_sq();
  if (len_sq <= 0.0) return distance(p, s.a);
  double t = std::clamp((p - s.a).dot(ab) / len_sq, 0.0, 1.0);
  return distance(p, s.a + ab * t);
}

bool segment_intersects_rect(const Segment& s, const Rect& r) noexcept {
  if (r.contains(s.a) || r.contains(s.b)) return true;
  Vec2 lo = r.lo(), hi = r.hi();
  Segment edges[4] = {{lo, {hi.x, lo.y}},
                      {{hi.x, lo.y}, hi},
                      {hi, {lo.x, hi.y}},
                      {{lo.x, hi.y}, lo}};
  for (const Segment& e : edges) {
    if (segments_intersect(s, e)) return true;
  }
  return false;
}

}  // namespace spr
