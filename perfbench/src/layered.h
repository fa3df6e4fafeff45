#pragma once

/// \file layered.h
/// The layer functions that Network's constructor, with_failures and
/// with_moves compose, called one at a time so each gets a span of its own:
/// UnitDiskGraph + InterestArea (graph.*), quadrant zones, compute_safety
/// and the incremental updaters (safety.*). Results equal the facade's:
/// the field and stream workloads check that.

#include <memory>
#include <optional>
#include <vector>

#include "deploy/deployment.h"
#include "deploy/interest_area.h"
#include "graph/unit_disk.h"
#include "safety/incremental.h"
#include "safety/labeling.h"

namespace perfbench {

class Result;

/// Work counts of the incremental updates LayeredNets applied.
struct UpdateCounts {
  double seeds = 0, reevaluations = 0, flips = 0, promotions = 0;
  double arena_high_water = 0;  ///< of the largest single update
  double edges_changed = 0, moved_nodes = 0;

  /// safety.seeds/reevaluations/flips/promotions, graph.edges_changed and
  /// mobility.moved_nodes per job, and safety.arena_high_water_bytes.
  void report(Result& result, double jobs) const;
};

class LayeredNet {
 public:
  /// Network(Deployment) + zones() + safety(), under the spans
  /// graph.build, graph.zones and safety.label. `pool` may be null; every
  /// later update adds its work to `counts`.
  LayeredNet(const spr::Deployment& deployment, spr::TaskPool* pool,
             UpdateCounts& counts);

  /// Network::with_failures: graph.with_failures (graph + interest area),
  /// then safety.failures (labeling copy + incremental update).
  spr::IncrementalStats fail(const std::vector<spr::NodeId>& casualties);

  /// Network::with_moves: graph.with_moves (graph + interest area), then
  /// safety.moves (labeling copy + bidirectional update). `diff` receives
  /// the edge delta.
  spr::IncrementalStats move(const std::vector<spr::Vec2>& positions,
                             spr::EdgeDiff& diff);

  const spr::UnitDiskGraph& graph() const { return *graph_; }
  const spr::SafetyInfo& safety() const { return info_; }

 private:
  spr::TaskPool* pool_;
  UpdateCounts& counts_;
  double band_;
  std::unique_ptr<spr::UnitDiskGraph> graph_;
  std::optional<spr::InterestArea> area_;
  spr::SafetyInfo info_;
};

}  // namespace perfbench
