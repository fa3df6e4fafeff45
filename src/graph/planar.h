#pragma once

/// \file planar.h
/// Local planarization of the unit-disk graph. The perimeter phases of
/// GF/GPSR-style recovery traverse faces of a planar subgraph that keeps the
/// connectivity of the original network; we build the Gabriel graph (GG):
/// keep uv iff no witness w lies inside the closed disc with diameter uv.
/// It preserves connectivity of the UDG and is computable from 1-hop
/// neighbor information only, matching the paper's fully-distributed
/// setting.

#include <vector>

#include "graph/unit_disk.h"

namespace spr {

/// Planar overlay: per-node sorted neighbor lists restricted to the edges
/// the Gabriel test keeps.
class PlanarOverlay {
 public:
  /// Builds the overlay from local tests on `g`.
  explicit PlanarOverlay(const UnitDiskGraph& g);

  std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return {adjacency_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  bool are_neighbors(NodeId u, NodeId v) const noexcept;
  std::size_t edge_count() const noexcept { return adjacency_.size() / 2; }

 private:
  std::vector<std::size_t> offsets_;
  std::vector<NodeId> adjacency_;
};

/// True when edge uv survives the Gabriel test in `g` (u, v must be
/// neighbors). Exposed for tests and for the per-hop local variant.
bool gabriel_keeps_edge(const UnitDiskGraph& g, NodeId u, NodeId v);

/// Exhaustively checks that no two overlay edges cross properly. O(E^2);
/// intended for tests.
bool overlay_is_planar(const UnitDiskGraph& g, const PlanarOverlay& overlay);

/// True when the overlay connects the same node pairs as `g` (component
/// structure preserved). O(V + E); intended for tests.
bool overlay_preserves_connectivity(const UnitDiskGraph& g,
                                    const PlanarOverlay& overlay);

}  // namespace spr
