#include "routing/slgf.h"

#include <vector>

#include "routing/greedy_util.h"
#include "routing/hand_rule.h"

namespace spr {

namespace {
struct SlgfHeader final : public PacketHeader {
  std::vector<bool> visited;
  bool in_perimeter = false;
  double stuck_dist = 0.0;
};
}  // namespace

std::unique_ptr<PacketHeader> SlgfRouter::make_header() const {
  return std::make_unique<SlgfHeader>();
}

void SlgfRouter::reset_header(PacketHeader& header, NodeId s, NodeId) const {
  auto& h = static_cast<SlgfHeader&>(header);
  h.visited.assign(graph().size(), false);
  h.visited[s] = true;
  h.in_perimeter = false;
  h.stuck_dist = 0.0;
}

Router::Decision SlgfRouter::select_successor(NodeId u, NodeId d,
                                              PacketHeader& header) const {
  auto& h = static_cast<SlgfHeader&>(header);
  h.visited[u] = true;
  const UnitDiskGraph& g = graph();

  if (g.are_neighbors(u, d)) {
    h.in_perimeter = false;
    return {d, HopPhase::kGreedy, false};
  }

  Vec2 dest = g.position(d);
  // Perimeter exit rule of [2]: resume greedy once strictly closer to d
  // than the stuck node.
  if (h.in_perimeter && distance(g.position(u), dest) < h.stuck_dist) {
    h.in_perimeter = false;
  }

  if (!h.in_perimeter) {
    // Safe forwarding: v's own request zone toward d must be a safe type.
    auto safe_toward_d = [&](NodeId v) {
      return safety_.is_safe(v, zone_type(g.position(v), dest));
    };
    if (NodeId v = zone_greedy_successor(g, u, dest, safe_toward_d);
        v != kInvalidNode) {
      h.visited[v] = true;
      return {v, HopPhase::kGreedy, false};
    }

    // Enforced greedy into the zone (may enter an unsafe area).
    if (NodeId v = zone_greedy_successor(g, u, dest); v != kInvalidNode) {
      h.visited[v] = true;
      return {v, HopPhase::kGreedy, false};
    }
  }

  // Local minimum: right-hand perimeter over untried nodes.
  bool new_minimum = !h.in_perimeter;
  if (new_minimum) {
    h.in_perimeter = true;
    h.stuck_dist = distance(g.position(u), dest);
  }
  NodeId v = first_by_rotation_from(
      g, u, dest, Hand::kRight, [&](NodeId w) { return !h.visited[w]; });
  if (v == kInvalidNode) return {kInvalidNode, HopPhase::kPerimeter, new_minimum};
  h.visited[v] = true;
  return {v, HopPhase::kPerimeter, new_minimum};
}

}  // namespace spr
