#include "routing/greedy_util.h"

namespace spr {

NodeId greedy_successor(const UnitDiskGraph& g, NodeId u, Vec2 dest) {
  Vec2 pu = g.position(u);
  double best = distance_sq(pu, dest);  // must beat u itself
  NodeId pick = kInvalidNode;
  for (NodeId v : g.neighbors(u)) {
    double d = distance_sq(g.position(v), dest);
    if (d < best) {
      best = d;
      pick = v;
    }
  }
  return pick;
}

NodeId zone_greedy_successor(const UnitDiskGraph& g, NodeId u, Vec2 dest,
                             const NodeFilter& keep) {
  Vec2 pu = g.position(u);
  Rect zone = request_zone(pu, dest);
  double best = -1.0;
  NodeId pick = kInvalidNode;
  for (NodeId v : g.neighbors(u)) {
    Vec2 pv = g.position(v);
    if (!zone.contains(pv)) continue;
    if (keep && !keep(v)) continue;
    double d = distance_sq(pv, dest);
    if (pick == kInvalidNode || d < best) {
      best = d;
      pick = v;
    }
  }
  return pick;
}

}  // namespace spr
