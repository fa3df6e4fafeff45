#include "deploy/interest_area.h"

#include <algorithm>

#include "geometry/hull.h"

namespace spr {

InterestArea::InterestArea(const UnitDiskGraph& g, double edge_band) {
  hull_ = convex_hull(g.positions());
  edge_.assign(g.size(), false);
  for (NodeId u = 0; u < g.size(); ++u) {
    edge_[u] = distance_to_hull_boundary(hull_, g.position(u)) <= edge_band;
  }
  for (NodeId u = 0; u < g.size(); ++u) {
    if (!edge_[u] && g.alive(u)) interior_.push_back(u);
  }
}

InterestArea::InterestArea(const UnitDiskGraph& g,
                           std::vector<bool> edge_flags, std::vector<Vec2> hull)
    : edge_(std::move(edge_flags)), hull_(std::move(hull)) {
  edge_.resize(g.size(), false);
  for (NodeId u = 0; u < g.size(); ++u) {
    if (!edge_[u] && g.alive(u)) interior_.push_back(u);
  }
}

InterestArea InterestArea::after_failures(const UnitDiskGraph& g) const {
  return InterestArea(g, edge_, hull_);
}

std::size_t InterestArea::edge_count() const noexcept {
  return static_cast<std::size_t>(std::count(edge_.begin(), edge_.end(), true));
}

}  // namespace spr
