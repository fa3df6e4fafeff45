#pragma once

/// \file boundhole.h
/// BOUNDHOLE (Fang, Gao, Guibas, INFOCOM'04 — reference [5] of the paper):
/// stuck-node detection by the TENT rule and hole-boundary construction by
/// a sweeping boundary walk. The paper's Section 5 precomputes this
/// "boundary information" for the GF baseline, which then recovers from a
/// local minimum by walking the hole boundary instead of blind perimeter
/// probing.
///
/// Implementation notes: we keep the TENT rule exact (perpendicular-bisector
/// intersection inside the radio disc) and build each boundary with the
/// right-hand sweep on the full unit-disk graph, omitting the original's
/// crossing-edge "untie" refinement. GF tolerates that simplification:
/// boundaries that fail to close within a step cap are discarded and their
/// stuck nodes fall back to face routing, as does a recovery that loops a
/// kept boundary without progress.

#include <vector>

#include "graph/unit_disk.h"

namespace spr {

/// One detected hole boundary (closed cycle, first node repeated nowhere).
struct HoleBoundary {
  std::vector<NodeId> cycle;
};

/// TENT rule at one node: true when some angularly-adjacent neighbor pair
/// leaves a direction in which u can be a local minimum (gap >= pi, or the
/// bisector intersection falls outside the radio disc). Nodes with fewer
/// than two neighbors are trivially stuck candidates.
bool tent_rule_stuck(const UnitDiskGraph& g, NodeId u);

/// Precomputed boundary information for a network.
class BoundHoleInfo {
 public:
  /// Detects stuck nodes and builds boundaries. A boundary walk that has
  /// not closed after 2n steps, or whose cycle holds more than
  /// max(16, n/4) nodes, is discarded.
  explicit BoundHoleInfo(const UnitDiskGraph& g);

  bool is_stuck(NodeId u) const noexcept { return stuck_[u]; }
  std::size_t stuck_count() const noexcept;

  /// Boundary index containing u, or -1.
  int boundary_of(NodeId u) const noexcept { return boundary_of_[u]; }

  const std::vector<HoleBoundary>& boundaries() const noexcept { return boundaries_; }

  /// Position of `u` within its boundary cycle; -1 when not on one.
  int cycle_position(NodeId u) const noexcept { return cycle_pos_[u]; }

 private:
  std::vector<bool> stuck_;
  std::vector<int> boundary_of_;
  std::vector<int> cycle_pos_;
  std::vector<HoleBoundary> boundaries_;
};

}  // namespace spr
