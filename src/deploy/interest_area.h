#pragma once

/// \file interest_area.h
/// The interest area and edge-node classification (paper Section 3).
///
/// "We assume that all of the communication actions occur inside the
///  interest area. This area is an inner part of the deployment area
///  encircled by the edge of networks, which can easily be built by the hull
///  algorithm. In our labeling process, each edge node will always keep its
///  status tuple as (1,1,1,1)."
///
/// We classify a node as an *edge node* when it lies on the convex hull of
/// the deployment or within `edge_band` of the hull boundary (default: one
/// radio range). Sources and destinations are drawn from the complementary
/// set of interior nodes.

#include <vector>

#include "geometry/vec2.h"
#include "graph/node.h"
#include "graph/unit_disk.h"

namespace spr {

/// Edge/interior classification of one network.
class InterestArea {
 public:
  /// Classifies nodes of `g`; `edge_band` is the distance from the hull
  /// boundary within which a node counts as an edge node.
  InterestArea(const UnitDiskGraph& g, double edge_band);

  /// Adopts a precomputed classification (`edge_flags.size() == g.size()`),
  /// deriving the interior set from it. Used by the spatial-tile layer: a
  /// tile's local view must pin exactly the nodes the *global* hull pins
  /// (plus its halo ghosts), which a locally-computed hull cannot reproduce.
  /// `hull`, normally the global hull, is stored verbatim and may be empty.
  InterestArea(const UnitDiskGraph& g, std::vector<bool> edge_flags,
               std::vector<Vec2> hull);

  /// The classification of `g`, a graph over this area's positions with
  /// some nodes dead (`UnitDiskGraph::with_failures`). The hull and the
  /// edge flags read every position, dead ones included, so they carry over
  /// unchanged and only the interior set drops the dead — equal to
  /// `InterestArea(g, edge_band)` for the band this area was built with,
  /// without the hull and the per-node boundary distances.
  InterestArea after_failures(const UnitDiskGraph& g) const;

  bool is_edge_node(NodeId u) const noexcept { return edge_[u]; }

  /// Interior node ids (candidate sources/destinations).
  const std::vector<NodeId>& interior_nodes() const noexcept { return interior_; }

  /// Hull vertices of the deployment, CCW.
  const std::vector<Vec2>& hull() const noexcept { return hull_; }

  std::size_t edge_count() const noexcept;

 private:
  std::vector<bool> edge_;
  std::vector<NodeId> interior_;
  std::vector<Vec2> hull_;
};

}  // namespace spr
