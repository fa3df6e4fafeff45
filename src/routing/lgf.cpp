#include "routing/lgf.h"

#include <vector>

#include "routing/greedy_util.h"
#include "routing/hand_rule.h"

namespace spr {

namespace {
struct LgfHeader final : public PacketHeader {
  std::vector<bool> visited;
  bool in_perimeter = false;
  double stuck_dist = 0.0;  // |L(m) - L(d)| at the local minimum m
};
}  // namespace

std::unique_ptr<PacketHeader> LgfRouter::make_header() const {
  return std::make_unique<LgfHeader>();
}

void LgfRouter::reset_header(PacketHeader& header, NodeId s, NodeId) const {
  auto& h = static_cast<LgfHeader&>(header);
  h.visited.assign(graph().size(), false);
  h.visited[s] = true;
  h.in_perimeter = false;
  h.stuck_dist = 0.0;
}

Router::Decision LgfRouter::select_successor(NodeId u, NodeId d,
                                             PacketHeader& header) const {
  auto& h = static_cast<LgfHeader&>(header);
  h.visited[u] = true;
  const UnitDiskGraph& g = graph();

  // Step 1: deliver directly when possible.
  if (g.are_neighbors(u, d)) {
    h.in_perimeter = false;
    return {d, HopPhase::kGreedy, false};
  }

  Vec2 dest = g.position(d);
  // Perimeter exit rule of [2]: resume greedy once strictly closer to d
  // than the node where the packet got stuck.
  if (h.in_perimeter && distance(g.position(u), dest) < h.stuck_dist) {
    h.in_perimeter = false;
  }

  // Steps 2-3: greedy advance inside the request zone.
  if (!h.in_perimeter) {
    if (NodeId v = zone_greedy_successor(g, u, dest); v != kInvalidNode) {
      h.visited[v] = true;
      return {v, HopPhase::kGreedy, false};
    }
  }

  // Step 4: local minimum -> right-hand perimeter over untried nodes,
  // kept until the packet is closer to d than the stuck node.
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
