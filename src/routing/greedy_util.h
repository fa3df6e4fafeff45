#pragma once

/// \file greedy_util.h
/// Shared successor-selection primitives: greedy advances (plain GF and the
/// request-zone-limited variant) with optional candidate filters.

#include <functional>

#include "geometry/quadrant.h"
#include "graph/unit_disk.h"

namespace spr {

/// Candidate filter: return false to exclude a node.
using NodeFilter = std::function<bool(NodeId)>;

/// Plain greedy forwarding: the neighbor of u strictly closer to `dest`
/// than u and closest to `dest` overall. kInvalidNode at a local minimum.
NodeId greedy_successor(const UnitDiskGraph& g, NodeId u, Vec2 dest);

/// Request-zone-limited greedy (LGF step 3): the neighbor inside
/// Z(u, dest) closest to `dest`, optionally restricted by `keep`.
/// kInvalidNode when the zone holds no (eligible) neighbor.
NodeId zone_greedy_successor(const UnitDiskGraph& g, NodeId u, Vec2 dest,
                             const NodeFilter& keep = {});

}  // namespace spr
