#include "graph/graph_algos.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <queue>

#include "util/task_pool.h"

namespace spr {

namespace {
std::atomic<std::uint64_t> g_bfs_trees{0};
std::atomic<std::uint64_t> g_dijkstra_trees{0};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Length of `path` as the left fold from its first node: the expression
/// every oracle reports, so equal optima give the same `double`.
double path_length(const UnitDiskGraph& g, const std::vector<NodeId>& path) {
  double length = 0.0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    length += distance(g.position(path[i - 1]), g.position(path[i]));
  }
  return length;
}
}  // namespace

OracleSearchCounts oracle_search_counts() noexcept {
  return {g_bfs_trees.load(std::memory_order_relaxed),
          g_dijkstra_trees.load(std::memory_order_relaxed)};
}

void reset_oracle_search_counts() noexcept {
  g_bfs_trees.store(0, std::memory_order_relaxed);
  g_dijkstra_trees.store(0, std::memory_order_relaxed);
}

std::vector<std::size_t> bfs_hops(const UnitDiskGraph& g, NodeId source) {
  constexpr auto kUnreached = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> dist(g.size(), kUnreached);
  if (source >= g.size()) return dist;  // invalid source: nothing reached
  std::queue<NodeId> frontier;
  dist[source] = 0;
  frontier.push(source);
  while (!frontier.empty()) {
    NodeId u = frontier.front();
    frontier.pop();
    for (NodeId v : g.neighbors(u)) {
      if (dist[v] == kUnreached) {
        dist[v] = dist[u] + 1;
        frontier.push(v);
      }
    }
  }
  return dist;
}

ShortestPathTree::ShortestPathTree(const UnitDiskGraph& g, NodeId source,
                                   Metric metric, NodeId stop_at)
    : g_(&g), source_(source), metric_(metric) {
  parent_.assign(g.size(), kInvalidNode);
  if (source >= g.size()) return;  // invalid source: everything unreachable
  if (stop_at >= g.size()) stop_at = kInvalidNode;  // out-of-range: full tree
  if (metric == Metric::kHops) {
    g_bfs_trees.fetch_add(1, std::memory_order_relaxed);
    std::vector<bool> seen(g.size(), false);
    std::queue<NodeId> frontier;
    seen[source] = true;
    frontier.push(source);
    while (!frontier.empty() &&
           (stop_at == kInvalidNode || !seen[stop_at])) {
      NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (!seen[v]) {
          seen[v] = true;
          parent_[v] = u;
          frontier.push(v);
        }
      }
    }
  } else {
    g_dijkstra_trees.fetch_add(1, std::memory_order_relaxed);
    std::vector<double> dist(g.size(), kInf);
    using Entry = std::pair<double, NodeId>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
    dist[source] = 0.0;
    heap.emplace(0.0, source);
    while (!heap.empty()) {
      auto [d, u] = heap.top();
      heap.pop();
      if (d > dist[u]) continue;
      if (u == stop_at) break;
      for (NodeId v : g.neighbors(u)) {
        double nd = d + distance(g.position(u), g.position(v));
        if (nd < dist[v]) {
          dist[v] = nd;
          parent_[v] = u;
          heap.emplace(nd, v);
        }
      }
    }
  }
}

ShortestPath ShortestPathTree::extract(NodeId target) const {
  ShortestPath result;
  if (target >= parent_.size() || !reached(target)) return result;
  for (NodeId v = target; v != source_; v = parent_[v]) result.path.push_back(v);
  result.path.push_back(source_);
  std::reverse(result.path.begin(), result.path.end());
  result.length = path_length(*g_, result.path);
  return result;
}

namespace {

/// Per-thread state of the point-to-point searches, grown to the largest
/// graph the thread has searched and never cleared: a node's `parent` and
/// `label` are live only while `mark` holds the running search's stamp, so
/// a search starts in O(1) however large the graph. A hops-only thread
/// touches 8 B per node (`mark`, `parent`); `label` is grown on the first
/// A*.
struct PointScratch {
  /// An A* heap entry: `label` is the node's label when pushed, so the
  /// entry is stale once the label has dropped below it.
  struct Entry {
    double key;  ///< label + |node - target|
    double label;
    NodeId node;
    bool operator>(const Entry& other) const noexcept {
      return key > other.key;
    }
  };

  std::vector<std::uint32_t> mark;
  std::vector<NodeId> parent;
  std::vector<double> label;
  std::vector<NodeId> from_source, from_target, next;
  std::vector<Entry> heap;
  std::uint32_t last_stamp = 0;

  /// Sizes the arrays for `n` nodes and returns two fresh stamps, `base`
  /// and `base + 1`. Stamps only grow, so no entry of an earlier search
  /// carries one; when they would wrap, every mark is zeroed (0 is never
  /// handed out) and numbering restarts.
  std::uint32_t begin(std::size_t n) {
    if (mark.size() < n) {
      mark.resize(n, 0);
      parent.resize(n);
    }
    if (last_stamp > std::numeric_limits<std::uint32_t>::max() - 2) {
      std::fill(mark.begin(), mark.end(), 0);
      last_stamp = 0;
    }
    last_stamp += 2;
    return last_stamp - 1;
  }
};

PointScratch& point_scratch() {
  thread_local PointScratch scratch;
  return scratch;
}

/// The edge where a bidirectional BFS's two sides met: `source_side` was
/// reached from s, `target_side` from t. Both invalid when s and t are
/// disconnected.
struct Meeting {
  NodeId source_side = kInvalidNode;
  NodeId target_side = kInvalidNode;
};

/// Level-synchronous bidirectional BFS between valid s != t, expanding the
/// smaller frontier one whole level at a time. The first edge found from a
/// frontier into the other side's marks closes a hop-optimal path: while
/// the sides are disjoint, every node within a hops of s and every node
/// within b hops of t is marked, so d(s, t) >= a + b + 1, and that edge
/// closes a path of at most a + b + 1 hops.
Meeting meet_in_middle(const UnitDiskGraph& g, NodeId s, NodeId t,
                       PointScratch& w) {
  const std::uint32_t from_s = w.begin(g.size());
  const std::uint32_t from_t = from_s + 1;
  w.mark[s] = from_s;
  w.mark[t] = from_t;
  w.parent[s] = kInvalidNode;
  w.parent[t] = kInvalidNode;
  w.from_source.assign(1, s);
  w.from_target.assign(1, t);
  while (!w.from_source.empty() && !w.from_target.empty()) {
    const bool forward = w.from_source.size() <= w.from_target.size();
    std::vector<NodeId>& level = forward ? w.from_source : w.from_target;
    const std::uint32_t mine = forward ? from_s : from_t;
    const std::uint32_t theirs = forward ? from_t : from_s;
    w.next.clear();
    for (NodeId u : level) {
      for (NodeId v : g.neighbors(u)) {
        if (w.mark[v] == mine) continue;
        if (w.mark[v] == theirs) {
          return forward ? Meeting{u, v} : Meeting{v, u};
        }
        w.mark[v] = mine;
        w.parent[v] = u;
        w.next.push_back(v);
      }
    }
    level.swap(w.next);
  }
  return {};
}

/// Appends v, its parent, its parent's parent, ... up to the search root.
void append_parent_chain(const PointScratch& w, NodeId v,
                         std::vector<NodeId>& path) {
  for (; v != kInvalidNode; v = w.parent[v]) path.push_back(v);
}

/// The hop optimum between valid s != t: the bidirectional BFS's
/// s..meeting..t path.
ShortestPath hop_optimum(const UnitDiskGraph& g, NodeId s, NodeId t,
                         PointScratch& w) {
  g_bfs_trees.fetch_add(1, std::memory_order_relaxed);
  ShortestPath result;
  const Meeting meeting = meet_in_middle(g, s, t, w);
  if (meeting.source_side == kInvalidNode) return result;
  append_parent_chain(w, meeting.source_side, result.path);
  std::reverse(result.path.begin(), result.path.end());
  append_parent_chain(w, meeting.target_side, result.path);
  result.length = path_length(g, result.path);
  return result;
}

/// The length optimum between valid s != t: A* from s towards t with
/// h(v) = |v - t|.
///
/// Why it returns Dijkstra's `double`. Adding a non-negative weight is
/// monotone in floating point and never lowers the sum, so Dijkstra's
/// proof goes through unchanged: its label for t is L*, the least
/// left-fold sum over s..t paths. The Euclidean h is consistent in exact
/// arithmetic, but rounding can make it inconsistent by an ulp, so
/// stopping when t is first popped is not exact. Instead a node is
/// re-expanded whenever its label drops (stale heap entries are skipped),
/// and the loop runs until the smallest key exceeds best * (1 + 1e-6).
/// Take Dijkstra's tree path v0..vk to t, whose prefix sums G_i are each
/// node's least label. Until t holds L*, the first v_i not yet expanded
/// with G_i waits in the heap with key fl(G_i + h(v_i)). With m = k - i
/// hops left, L* >= (G_i + the m remaining weights) * (1 - 2^-53)^m, and
/// h(v_i) is within a few ulps of |v_i - t|, which is at most that
/// weight sum; so the key is at most L* * (1 + (m + 5) * 2^-53), inside
/// the slack for any m below 10^9, and the loop cannot stop early. The
/// reported length is the left fold along the parent chain: each parent's
/// label has only dropped since it relaxed its child, so that fold is at
/// most t's label L*, and no s..t path folds below L*.
ShortestPath length_optimum(const UnitDiskGraph& g, NodeId s, NodeId t,
                            PointScratch& w) {
  constexpr double kSlack = 1.0 + 1e-6;
  g_dijkstra_trees.fetch_add(1, std::memory_order_relaxed);
  const std::uint32_t stamp = w.begin(g.size());
  if (w.label.size() < g.size()) w.label.resize(g.size());
  const Vec2 goal = g.position(t);
  const std::greater<> min_heap;
  w.heap.clear();
  w.mark[s] = stamp;
  w.label[s] = 0.0;
  w.parent[s] = kInvalidNode;
  w.heap.push_back({distance(g.position(s), goal), 0.0, s});
  double best = kInf;  // t's label; t itself is never expanded
  while (!w.heap.empty()) {
    std::pop_heap(w.heap.begin(), w.heap.end(), min_heap);
    const PointScratch::Entry top = w.heap.back();
    w.heap.pop_back();
    if (top.key > best * kSlack) break;
    if (top.label > w.label[top.node]) continue;
    const Vec2 at = g.position(top.node);
    for (NodeId v : g.neighbors(top.node)) {
      const double nd = top.label + distance(at, g.position(v));
      if (w.mark[v] == stamp && !(nd < w.label[v])) continue;
      w.mark[v] = stamp;
      w.label[v] = nd;
      w.parent[v] = top.node;
      if (v == t) {
        best = nd;
        continue;
      }
      w.heap.push_back({nd + distance(g.position(v), goal), nd, v});
      std::push_heap(w.heap.begin(), w.heap.end(), min_heap);
    }
  }
  ShortestPath result;
  if (best == kInf) return result;
  append_parent_chain(w, t, result.path);
  std::reverse(result.path.begin(), result.path.end());
  result.length = path_length(g, result.path);
  return result;
}

}  // namespace

OracleBatch::OracleBatch(const UnitDiskGraph& g,
                         std::span<const std::pair<NodeId, NodeId>> pairs)
    : OracleBatch(g, pairs, nullptr) {}

OracleBatch::OracleBatch(const UnitDiskGraph& g,
                         std::span<const std::pair<NodeId, NodeId>> pairs,
                         Arena* /*scratch*/, Metrics metrics, TaskPool* pool) {
  constexpr std::size_t kPairsPerTask = 8;
  const bool want_length = metrics == Metrics::kBoth;
  hop_optimal_.resize(pairs.size());
  if (want_length) length_optimal_.resize(pairs.size());
  parallel_for_blocked(
      pool, pairs.size(), kPairsPerTask,
      [&](std::size_t begin, std::size_t end) {
        PointScratch& w = point_scratch();
        for (std::size_t i = begin; i < end; ++i) {
          const NodeId s = pairs[i].first;
          const NodeId t = pairs[i].second;
          if (s >= g.size() || t >= g.size()) continue;  // empty optima
          if (s == t) {
            hop_optimal_[i].path = {s};
            if (want_length) length_optimal_[i].path = {s};
            continue;
          }
          hop_optimal_[i] = hop_optimum(g, s, t, w);
          if (want_length) length_optimal_[i] = length_optimum(g, s, t, w);
        }
      });
}

ShortestPath bfs_path(const UnitDiskGraph& g, NodeId source, NodeId target) {
  return ShortestPathTree(g, source, ShortestPathTree::Metric::kHops, target)
      .extract(target);
}

ShortestPath dijkstra_path(const UnitDiskGraph& g, NodeId source, NodeId target) {
  return ShortestPathTree(g, source, ShortestPathTree::Metric::kLength, target)
      .extract(target);
}

std::vector<int> connected_components(const UnitDiskGraph& g) {
  std::vector<int> label(g.size(), -1);
  int next = 0;
  std::queue<NodeId> frontier;
  for (NodeId s = 0; s < g.size(); ++s) {
    if (label[s] != -1) continue;
    label[s] = next;
    frontier.push(s);
    while (!frontier.empty()) {
      NodeId u = frontier.front();
      frontier.pop();
      for (NodeId v : g.neighbors(u)) {
        if (label[v] == -1) {
          label[v] = next;
          frontier.push(v);
        }
      }
    }
    ++next;
  }
  return label;
}

bool connected(const UnitDiskGraph& g, NodeId u, NodeId v) {
  if (u >= g.size() || v >= g.size()) return false;
  if (u == v) return true;
  return meet_in_middle(g, u, v, point_scratch()).source_side != kInvalidNode;
}

std::vector<NodeId> largest_component(const UnitDiskGraph& g) {
  auto label = connected_components(g);
  int max_label = 0;
  for (int l : label) max_label = std::max(max_label, l);
  std::vector<std::size_t> count(static_cast<size_t>(max_label) + 1, 0);
  for (NodeId u = 0; u < g.size(); ++u) {
    if (g.alive(u)) ++count[static_cast<size_t>(label[u])];
  }
  int best = static_cast<int>(
      std::max_element(count.begin(), count.end()) - count.begin());
  std::vector<NodeId> out;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (label[u] == best && g.alive(u)) out.push_back(u);
  }
  return out;
}

}  // namespace spr
