#pragma once

/// \file deployment.h
/// The paper's two deployment models (Section 5):
///
///  * IA ("ideal"): nodes placed uniformly at random over the field; holes
///    arise only from locally sparse deployment and are small.
///  * FA ("forbidden areas"): random no-deploy regions (possibly irregular)
///    are placed first and nodes are sampled uniformly outside them; this
///    produces the larger holes the paper uses to stress recovery.
///
/// Defaults mirror the paper: 200 m x 200 m field, 20 m radio range,
/// 400..800 nodes.

#include <vector>

#include "deploy/rng.h"
#include "geometry/polygon.h"
#include "geometry/rect.h"
#include "geometry/vec2.h"

namespace spr {

/// Which deployment model to use.
enum class DeployModel { kIdeal, kForbiddenAreas };

/// Parameters for a deployment draw.
struct DeploymentConfig {
  Rect field = Rect::from_bounds({0.0, 0.0}, {200.0, 200.0});
  int node_count = 600;
  double radio_range = 20.0;
  DeployModel model = DeployModel::kIdeal;

  // FA-model knobs. The paper leaves the forbidden-area geometry
  // unspecified ("randomly set some forbidden areas ... to study the impact
  // of larger holes"); these defaults are calibrated so that the holes are
  // large enough to be routed around rather than absorbed by density.
  int min_forbidden_areas = 3;
  int max_forbidden_areas = 5;
  double min_forbidden_extent = 45.0;  ///< meters, per axis / radius
  double max_forbidden_extent = 90.0;
  /// Fraction of forbidden areas drawn as irregular polygons (the rest are
  /// axis-aligned rectangles). The paper notes the areas "may be irregular".
  double irregular_fraction = 0.5;
  /// Forbidden areas are kept inside the field inset by this margin so that
  /// the network edge stays populated.
  double forbidden_margin = 20.0;
};

/// A concrete deployment: node positions plus the forbidden areas (empty for
/// the IA model).
struct Deployment {
  std::vector<Vec2> positions;
  std::vector<Polygon> forbidden_areas;
  Rect field;
  double radio_range = 0.0;

  /// True when `p` lies inside any forbidden area.
  bool in_forbidden_area(Vec2 p) const noexcept;
};

/// The most nodes `deploy` draws. A labeled field costs a few KB per node
/// (graph, quadrant view, tuples, tiles), so 10^6 nodes is already a few
/// GB; every entry point that takes a node count rejects a larger one.
inline constexpr int kMaxDeployNodes = 1000000;

/// Draws a deployment according to `config` using `rng`. Positions are
/// i.i.d. uniform over the allowed region (rejection sampling for FA).
/// `config.node_count` must lie in [0, kMaxDeployNodes] (checked).
Deployment deploy(const DeploymentConfig& config, Rng& rng);

/// Deterministic perturbed-grid deployment (regular coverage with jitter);
/// used by tests that need hole-free fields.
Deployment deploy_perturbed_grid(const DeploymentConfig& config, Rng& rng,
                                 double jitter_fraction = 0.25);

}  // namespace spr
