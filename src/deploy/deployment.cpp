#include "deploy/deployment.h"

#include <algorithm>
#include <cmath>

#include "geometry/angle.h"
#include "util/check.h"

namespace spr {

bool Deployment::in_forbidden_area(Vec2 p) const noexcept {
  for (const Polygon& area : forbidden_areas) {
    if (area.contains(p)) return true;
  }
  return false;
}

namespace {

Polygon random_forbidden_polygon(const DeploymentConfig& config, Rng& rng) {
  Rect inner = config.field.inflated(-config.forbidden_margin);
  Vec2 center{rng.uniform(inner.lo().x, inner.hi().x),
              rng.uniform(inner.lo().y, inner.hi().y)};
  double extent = rng.uniform(config.min_forbidden_extent,
                              config.max_forbidden_extent);
  if (rng.chance(config.irregular_fraction)) {
    // Star-shaped irregular polygon: random radii around the center.
    int sides = rng.uniform_int(5, 9);
    std::vector<Vec2> vs;
    vs.reserve(static_cast<size_t>(sides));
    for (int i = 0; i < sides; ++i) {
      double angle = kTwoPi * i / sides;
      double radius = 0.5 * extent * rng.uniform(0.55, 1.0);
      vs.push_back({center.x + radius * std::cos(angle),
                    center.y + radius * std::sin(angle)});
    }
    return Polygon(std::move(vs));
  }
  double w = extent * rng.uniform(0.6, 1.0);
  double h = extent * rng.uniform(0.6, 1.0);
  return Polygon::from_rect(
      Rect::from_corners({center.x - w / 2, center.y - h / 2},
                         {center.x + w / 2, center.y + h / 2}));
}

}  // namespace

Deployment deploy(const DeploymentConfig& config, Rng& rng) {
  SPR_CHECK(config.node_count >= 0 && config.node_count <= kMaxDeployNodes,
            "deploy: node count ", config.node_count, " outside [0, ",
            kMaxDeployNodes, "]");
  Deployment out;
  out.field = config.field;
  out.radio_range = config.radio_range;

  if (config.model == DeployModel::kForbiddenAreas) {
    int count = rng.uniform_int(config.min_forbidden_areas,
                                config.max_forbidden_areas);
    out.forbidden_areas.reserve(static_cast<size_t>(count));
    for (int i = 0; i < count; ++i) {
      out.forbidden_areas.push_back(random_forbidden_polygon(config, rng));
    }
  }

  out.positions.reserve(static_cast<size_t>(config.node_count));
  // Rejection sampling; forbidden areas cover a bounded field fraction, so
  // this terminates quickly. A hard cap guards against pathological configs.
  const int max_attempts = config.node_count * 1000;
  int attempts = 0;
  while (static_cast<int>(out.positions.size()) < config.node_count &&
         attempts++ < max_attempts) {
    Vec2 p{rng.uniform(config.field.lo().x, config.field.hi().x),
           rng.uniform(config.field.lo().y, config.field.hi().y)};
    if (!out.in_forbidden_area(p)) out.positions.push_back(p);
  }
  return out;
}

Deployment deploy_perturbed_grid(const DeploymentConfig& config, Rng& rng,
                                 double jitter_fraction) {
  Deployment out;
  out.field = config.field;
  out.radio_range = config.radio_range;

  int per_side = std::max(
      1, static_cast<int>(std::round(std::sqrt(config.node_count))));
  double dx = config.field.width() / per_side;
  double dy = config.field.height() / per_side;
  out.positions.reserve(static_cast<size_t>(per_side) * per_side);
  for (int row = 0; row < per_side; ++row) {
    for (int col = 0; col < per_side; ++col) {
      double cx = config.field.lo().x + (col + 0.5) * dx;
      double cy = config.field.lo().y + (row + 0.5) * dy;
      double jx = rng.uniform(-jitter_fraction, jitter_fraction) * dx;
      double jy = rng.uniform(-jitter_fraction, jitter_fraction) * dy;
      out.positions.push_back({cx + jx, cy + jy});
    }
  }
  return out;
}

}  // namespace spr
