#include "geometry/polygon.h"

#include <cmath>

#include "geometry/angle.h"
#include "geometry/segment.h"

namespace spr {

Polygon Polygon::from_rect(const Rect& r) {
  return Polygon({r.lo(), {r.hi().x, r.lo().y}, r.hi(), {r.lo().x, r.hi().y}});
}

Polygon Polygon::regular(Vec2 center, double radius, int sides) {
  std::vector<Vec2> vs;
  vs.reserve(static_cast<size_t>(sides));
  for (int i = 0; i < sides; ++i) {
    double a = kTwoPi * i / sides;
    vs.push_back({center.x + radius * std::cos(a), center.y + radius * std::sin(a)});
  }
  return Polygon(std::move(vs));
}

bool Polygon::contains(Vec2 p) const noexcept {
  const std::size_t n = vertices_.size();
  if (n < 3) return false;
  // Boundary first: the even-odd ray cast below is unreliable exactly on
  // edges, and the FA model treats the boundary as forbidden.
  for (std::size_t i = 0; i < n; ++i) {
    if (on_segment({vertices_[i], vertices_[(i + 1) % n]}, p, 1e-9)) return true;
  }
  bool inside = false;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    Vec2 a = vertices_[i], b = vertices_[j];
    bool straddles = (a.y > p.y) != (b.y > p.y);
    if (straddles) {
      double x_at = a.x + (p.y - a.y) * (b.x - a.x) / (b.y - a.y);
      if (p.x < x_at) inside = !inside;
    }
  }
  return inside;
}

double Polygon::signed_area() const noexcept {
  const std::size_t n = vertices_.size();
  if (n < 3) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    sum += vertices_[j].cross(vertices_[i]);
  }
  return 0.5 * sum;
}

double Polygon::area() const noexcept { return std::abs(signed_area()); }

double Polygon::perimeter() const noexcept {
  const std::size_t n = vertices_.size();
  if (n < 2) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 0, j = n - 1; i < n; j = i++) {
    sum += distance(vertices_[j], vertices_[i]);
  }
  return sum;
}

Rect Polygon::bounding_box() const noexcept {
  if (vertices_.empty()) return {};
  Rect box = Rect::from_corners(vertices_.front(), vertices_.front());
  for (Vec2 v : vertices_) box = box.expanded_to(v);
  return box;
}

}  // namespace spr
