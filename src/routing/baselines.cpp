#include "routing/baselines.h"

#include <limits>
#include <vector>

#include "geometry/angle.h"
#include "graph/graph_algos.h"

namespace spr {

namespace {
struct VisitedHeader final : public PacketHeader {
  std::vector<bool> visited;
};

/// The BFS-optimal path, computed when the packet is armed, and the index
/// of the next hop on it.
struct FloodHeader final : public PacketHeader {
  std::vector<NodeId> path;
  std::size_t next = 1;
};
}  // namespace

// ---------------------------------------------------------------- MFR ----

Router::Decision MfrRouter::select_successor(NodeId u, NodeId d,
                                             PacketHeader&) const {
  const UnitDiskGraph& g = graph();
  if (g.are_neighbors(u, d)) return {d, HopPhase::kGreedy, false};
  Vec2 pu = g.position(u);
  Vec2 toward = (g.position(d) - pu).normalized();
  NodeId pick = kInvalidNode;
  double best_progress = 0.0;  // strictly positive progress required
  for (NodeId v : g.neighbors(u)) {
    double progress = (g.position(v) - pu).dot(toward);
    if (progress > best_progress) {
      best_progress = progress;
      pick = v;
    }
  }
  if (pick == kInvalidNode) return {kInvalidNode, HopPhase::kGreedy, true};
  return {pick, HopPhase::kGreedy, false};
}

// ------------------------------------------------------------ Compass ----

std::unique_ptr<PacketHeader> CompassRouter::make_header() const {
  return std::make_unique<VisitedHeader>();
}

void CompassRouter::reset_header(PacketHeader& header, NodeId s, NodeId) const {
  auto& h = static_cast<VisitedHeader&>(header);
  h.visited.assign(graph().size(), false);
  h.visited[s] = true;
}

Router::Decision CompassRouter::select_successor(NodeId u, NodeId d,
                                                 PacketHeader& header) const {
  auto& h = static_cast<VisitedHeader&>(header);
  const UnitDiskGraph& g = graph();
  h.visited[u] = true;
  if (g.are_neighbors(u, d)) return {d, HopPhase::kGreedy, false};
  Vec2 pu = g.position(u);
  double ray = bearing(pu, g.position(d));
  NodeId pick = kInvalidNode;
  double best_dev = std::numeric_limits<double>::infinity();
  for (NodeId v : g.neighbors(u)) {
    if (h.visited[v]) continue;  // loop-erasure: classic compass can cycle
    double dev = ccw_delta(ray, bearing(pu, g.position(v)));
    dev = std::min(dev, kTwoPi - dev);
    if (dev < best_dev) {
      best_dev = dev;
      pick = v;
    }
  }
  // Compass has no recovery: a deviation beyond 90 degrees means no
  // forward-ish neighbor exists — treat as a local minimum and stop.
  if (pick == kInvalidNode || best_dev > kPi / 2.0) {
    return {kInvalidNode, HopPhase::kGreedy, true};
  }
  h.visited[pick] = true;
  return {pick, HopPhase::kGreedy, false};
}

// ----------------------------------------------------------- Flooding ----

std::unique_ptr<PacketHeader> FloodingRouter::make_header() const {
  return std::make_unique<FloodHeader>();
}

void FloodingRouter::reset_header(PacketHeader& header, NodeId s,
                                  NodeId d) const {
  auto& h = static_cast<FloodHeader&>(header);
  h.path = bfs_path(graph(), s, d).path;  // empty when d is unreachable
  h.next = 1;
}

Router::Decision FloodingRouter::select_successor(NodeId, NodeId,
                                                  PacketHeader& header) const {
  auto& h = static_cast<FloodHeader&>(header);
  if (h.next >= h.path.size()) return {kInvalidNode, HopPhase::kGreedy, false};
  return {h.path[h.next++], HopPhase::kGreedy, false};
}

}  // namespace spr
