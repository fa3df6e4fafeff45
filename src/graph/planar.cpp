#include "graph/planar.h"

#include <algorithm>
#include <queue>

#include "geometry/segment.h"

namespace spr {

bool gabriel_keeps_edge(const UnitDiskGraph& g, NodeId u, NodeId v) {
  Vec2 pu = g.position(u), pv = g.position(v);
  Vec2 m = midpoint(pu, pv);
  double radius_sq = distance_sq(pu, pv) * 0.25;
  // Witnesses must be common-range candidates; checking u's neighbors
  // suffices because any point in the diameter disc is within |uv| of u.
  for (NodeId w : g.neighbors(u)) {
    if (w == v) continue;
    if (distance_sq(g.position(w), m) < radius_sq - 1e-12) return false;
  }
  for (NodeId w : g.neighbors(v)) {
    if (w == u) continue;
    if (distance_sq(g.position(w), m) < radius_sq - 1e-12) return false;
  }
  return true;
}

PlanarOverlay::PlanarOverlay(const UnitDiskGraph& g) {
  const std::size_t n = g.size();
  std::vector<std::vector<NodeId>> kept(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (v < u) continue;  // test each undirected edge once
      if (gabriel_keeps_edge(g, u, v)) {
        kept[u].push_back(v);
        kept[v].push_back(u);
      }
    }
  }
  offsets_.assign(n + 1, 0);
  std::size_t total = 0;
  for (NodeId u = 0; u < n; ++u) {
    std::sort(kept[u].begin(), kept[u].end());
    offsets_[u] = total;
    total += kept[u].size();
  }
  offsets_[n] = total;
  adjacency_.reserve(total);
  for (NodeId u = 0; u < n; ++u) {
    adjacency_.insert(adjacency_.end(), kept[u].begin(), kept[u].end());
  }
}

bool PlanarOverlay::are_neighbors(NodeId u, NodeId v) const noexcept {
  auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

bool overlay_is_planar(const UnitDiskGraph& g, const PlanarOverlay& overlay) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId u = 0; u < g.size(); ++u) {
    for (NodeId v : overlay.neighbors(u)) {
      if (u < v) edges.emplace_back(u, v);
    }
  }
  for (std::size_t i = 0; i < edges.size(); ++i) {
    Segment si{g.position(edges[i].first), g.position(edges[i].second)};
    for (std::size_t j = i + 1; j < edges.size(); ++j) {
      // Edges sharing an endpoint cannot cross properly; skip cheaply.
      if (edges[i].first == edges[j].first || edges[i].first == edges[j].second ||
          edges[i].second == edges[j].first || edges[i].second == edges[j].second) {
        continue;
      }
      Segment sj{g.position(edges[j].first), g.position(edges[j].second)};
      if (segments_cross_properly(si, sj)) return false;
    }
  }
  return true;
}

bool overlay_preserves_connectivity(const UnitDiskGraph& g,
                                    const PlanarOverlay& overlay) {
  const std::size_t n = g.size();
  // Union components of the overlay, then check every UDG edge joins nodes
  // in the same overlay component.
  std::vector<int> label(n, -1);
  int next = 0;
  std::queue<NodeId> frontier;
  for (NodeId s = 0; s < n; ++s) {
    if (label[s] != -1) continue;
    label[s] = next;
    frontier.push(s);
    while (!frontier.empty()) {
      NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : overlay.neighbors(u)) {
        if (label[v] == -1) {
          label[v] = next;
          frontier.push(v);
        }
      }
    }
    ++next;
  }
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (label[u] != label[v]) return false;
    }
  }
  return true;
}

}  // namespace spr
