#include "deploy/interest_area.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geometry/hull.h"
#include "util/check.h"

namespace spr {

namespace {

/// The interior certificate of interest_area.h: the supporting line of each
/// hull edge as an inward unit normal (nx, ny) and offset c, and the
/// threshold the smallest n.p - c must exceed.
class InteriorCertificate {
 public:
  InteriorCertificate(const std::vector<Vec2>& hull,
                      const std::vector<Vec2>& points, double band) {
    if (hull.size() < 3) return;
    double m = 0.0;
    for (const Vec2 p : points) m = std::max({m, std::abs(p.x), std::abs(p.y)});
    if (!(m <= 0x1p500)) return;
    for (std::size_t i = 0, j = hull.size() - 1; i < hull.size(); j = i++) {
      const Vec2 a = hull[j];
      const Vec2 d = hull[i] - a;
      const double len = d.norm();
      if (!(len >= 0x1p-500)) {
        nx_.clear();  // no certificate: every node takes the scan
        return;
      }
      nx_.push_back(-d.y / len);
      ny_.push_back(d.x / len);
      c_.push_back(nx_.back() * a.x + ny_.back() * a.y);
    }
    // Pad to whole lanes with lines no point is near: 0 x + 0 y + inf.
    while (nx_.size() % kLanes != 0) {
      nx_.push_back(0.0);
      ny_.push_back(0.0);
      c_.push_back(-std::numeric_limits<double>::infinity());
    }
    // 64 u M + 4 u band with u = 2^-53; both factors are powers of two.
    threshold_ = band + 0x1p-47 * m + 0x1p-51 * band;
  }

  /// True when `p` is provably farther than the band from every edge;
  /// always false without a certificate (`nx_` empty).
  bool certifies(Vec2 p) const noexcept {
    if (nx_.empty()) return false;
    // Independent minima per lane, so the loop is not one dependency chain.
    double lo[kLanes];
    std::fill(lo, lo + kLanes, std::numeric_limits<double>::infinity());
    for (std::size_t k = 0; k < nx_.size(); k += kLanes) {
      for (std::size_t l = 0; l < kLanes; ++l) {
        const double s = nx_[k + l] * p.x + ny_[k + l] * p.y - c_[k + l];
        lo[l] = s < lo[l] ? s : lo[l];
      }
    }
    return *std::min_element(lo, lo + kLanes) > threshold_;
  }

 private:
  static constexpr std::size_t kLanes = 4;
  std::vector<double> nx_, ny_, c_;
  double threshold_ = 0.0;
};

}  // namespace

InterestArea::InterestArea(const UnitDiskGraph& g, double edge_band) {
  SPR_CHECK(std::isfinite(edge_band) && edge_band >= 0.0,
            "InterestArea: edge band ", edge_band,
            " must be finite and >= 0");
  hull_ = convex_hull(g.positions());
  const InteriorCertificate certificate(hull_, g.positions(), edge_band);
  edge_.assign(g.size(), false);
  for (NodeId u = 0; u < g.size(); ++u) {
    const Vec2 p = g.position(u);
    edge_[u] = !certificate.certifies(p) &&
               distance_to_hull_boundary(hull_, p) <= edge_band;
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
