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
///
/// **The interior certificate.** The exact test is the scan
/// `distance_to_hull_boundary(hull, p) <= band`, the computed distance D~_e
/// from p to every hull edge e. Most nodes skip it: for each edge the
/// constructor stores the inward unit normal n of its supporting line and
/// the offset c, so s~_e = n.p - c is p's computed signed distance to that
/// line, and a node whose smallest s~_e exceeds band + margin is interior
/// without a square root. Only the rest (and every node of a hull with
/// fewer than three vertices) take the scan. The flags are the scan's
/// exactly:
///  - In real numbers, the distance from p to a segment is at least its
///    distance to the segment's line, which is at least the signed one.
///  - Let M bound every |coordinate| and u = 2^-53. Rounding moves the
///    computed segment distance down by at most 16 u M (the point
///    a + t(b - a) is off by 5 u M per coordinate, the difference and the
///    hypot add 3 u relative on a distance of at most 2.9 M), and moves
///    s~_e up by at most 20 u M (8.5 u M from the rounded normal, 2.9 u M
///    from the rounded edge direction, 8.5 u M from the dot products).
///  - So D~_e >= s~_e - 36 u M for every edge. The margin is
///    64 u M + 4 u band, and the threshold band + margin loses at most
///    2 u (band + margin) to its own rounding, so s~_e > threshold gives
///    D~_e > band for every edge, and the scan would find none within the
///    band.
/// The bound holds with or without fused multiply-adds and for any vertex
/// list, convex or not: convexity only makes the certificate succeed for
/// interior nodes. It is used when M <= 2^500 and every edge is at least
/// 2^-500 long, where nothing overflows and no normal loses precision to
/// subnormals; otherwise every node takes the scan.

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
  /// Adopts `edge_flags` and `hull` (`after_failures`' carried
  /// classification), deriving the interior set of `g` from them.
  InterestArea(const UnitDiskGraph& g, std::vector<bool> edge_flags,
               std::vector<Vec2> hull);

  std::vector<bool> edge_;
  std::vector<NodeId> interior_;
  std::vector<Vec2> hull_;
};

}  // namespace spr
