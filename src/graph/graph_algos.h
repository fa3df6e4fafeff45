#pragma once

/// \file graph_algos.h
/// Reference graph algorithms over the unit-disk substrate: BFS hop counts,
/// Dijkstra Euclidean shortest paths, and connectivity. These are the
/// oracles the benches use to compute stretch; the routers never consult
/// them (they are strictly local, as in the paper).
///
/// The stretch oracle is point to point: `OracleBatch` runs, per (s, d)
/// pair, a bidirectional BFS for the hop optimum and an A* with the
/// Euclidean heuristic for the length optimum, each stopping at d, and
/// `connected` is the same bidirectional BFS. `ShortestPathTree` (one full
/// single-source search, a parent array answering every target) and the
/// per-pair `bfs_path` / `dijkstra_path` wrappers over it are the
/// independent reference those searches are tested against.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/node.h"
#include "graph/unit_disk.h"

namespace spr {

/// Result of a single-source search.
struct ShortestPath {
  std::vector<NodeId> path;  ///< s ... d inclusive; empty when unreachable
  double length = 0.0;       ///< sum of Euclidean edge lengths
  std::size_t hops() const noexcept { return path.empty() ? 0 : path.size() - 1; }
};

/// Process-wide count of oracle searches, the hook behind the search-count
/// assertions in tests and the sweep benches. Every `ShortestPathTree`
/// construction increments one counter (the per-pair wrappers build a tree,
/// so they count too), and so does every point-to-point search an
/// `OracleBatch` runs: its bidirectional BFS counts as a BFS, its A* as a
/// Dijkstra. `bfs_hops` and the connectivity helpers do not count.
struct OracleSearchCounts {
  std::uint64_t bfs_trees = 0;
  std::uint64_t dijkstra_trees = 0;
};

/// Snapshot of the process-wide counters (atomic, safe under sweeps).
OracleSearchCounts oracle_search_counts() noexcept;

/// Resets both counters to zero (tests and bench sections).
void reset_oracle_search_counts() noexcept;

/// One single-source search, memoized as a parent array: BFS (hop-optimal)
/// or Dijkstra (Euclidean-length-optimal). Answers any number of targets
/// without re-searching; `extract(t)` yields exactly the path the per-pair
/// `bfs_path(g, s, t)` / `dijkstra_path(g, s, t)` would return.
///
/// `stop_at` bounds the search: the frontier halts once that node is
/// settled, which is what the per-pair wrappers use to keep their old
/// early-exit cost. A stopped tree is only valid for targets settled
/// before the stop (in particular `stop_at` itself); batch consumers that
/// extract many targets must build the full tree (the default).
class ShortestPathTree {
 public:
  enum class Metric { kHops, kLength };

  ShortestPathTree(const UnitDiskGraph& g, NodeId source, Metric metric,
                   NodeId stop_at = kInvalidNode);

  NodeId source() const noexcept { return source_; }
  Metric metric() const noexcept { return metric_; }

  bool reached(NodeId target) const noexcept {
    if (target >= parent_.size()) return false;  // also: invalid source
    return target == source_ || parent_[target] != kInvalidNode;
  }

  /// Tree parent of `target` (kInvalidNode for the source and unreached).
  NodeId parent(NodeId target) const noexcept { return parent_[target]; }

  /// The s..target path along the tree; empty when unreachable. Identical
  /// (nodes and floating-point length) to the per-pair search result.
  ShortestPath extract(NodeId target) const;

 private:
  const UnitDiskGraph* g_;
  NodeId source_;
  Metric metric_;
  std::vector<NodeId> parent_;
};

class Arena;
class TaskPool;

/// The stretch oracle for a batch of (source, destination) pairs: two exact
/// point-to-point searches per pair, each stopping at the destination.
///
/// - Hops: a level-synchronous bidirectional BFS that always expands the
///   smaller frontier and stops at the first edge joining the two sides.
/// - Length: A* with h(v) = |v - d|, re-expanding a node whenever its label
///   drops and popping until the smallest key exceeds the best label by a
///   1e-6 relative slack (graph_algos.cpp argues why this is exact in
///   floating point).
///
/// Every number a consumer reads equals the reference: `hops()` of the hop
/// optimum is `bfs_path`'s, and `length` of the length optimum is
/// `dijkstra_path`'s, the same `double`. The witness *paths* may differ
/// from the reference's where optima tie. Pairs with an out-of-range id
/// run no search and get empty optima; s == d gets the one-node path.
class OracleBatch {
 public:
  /// Which per-pair optima to compute. `kHopsOnly` skips the A* searches
  /// entirely — one bidirectional BFS per pair is the whole cost, and
  /// `length_optimal` must not be consulted. The streaming simulator's
  /// stretch oracle only needs hop counts; the sweep cells need both.
  enum class Metrics { kBoth, kHopsOnly };

  OracleBatch(const UnitDiskGraph& g,
              std::span<const std::pair<NodeId, NodeId>> pairs);

  /// As above. `scratch` is accepted only for source compatibility and is
  /// not used: the searches run on per-thread scratch. With a `pool`, the
  /// pairs fan out over its workers in blocks; each pair writes only its
  /// own result, so the batch is identical to a serial one.
  OracleBatch(const UnitDiskGraph& g,
              std::span<const std::pair<NodeId, NodeId>> pairs,
              Arena* scratch, Metrics metrics = Metrics::kBoth,
              TaskPool* pool = nullptr);

  std::size_t size() const noexcept { return hop_optimal_.size(); }

  /// Hop / length optimum of pairs[i]; empty path when unreachable.
  const ShortestPath& hop_optimal(std::size_t i) const noexcept {
    return hop_optimal_[i];
  }
  /// Only valid for a `kBoth` batch.
  const ShortestPath& length_optimal(std::size_t i) const noexcept {
    return length_optimal_[i];
  }

 private:
  std::vector<ShortestPath> hop_optimal_;
  std::vector<ShortestPath> length_optimal_;
};

/// Hop counts from `source` to every node (SIZE_MAX when unreachable; all
/// of them for an out-of-range source).
std::vector<std::size_t> bfs_hops(const UnitDiskGraph& g, NodeId source);

/// Hop-optimal path (BFS tree); empty path when unreachable.
ShortestPath bfs_path(const UnitDiskGraph& g, NodeId source, NodeId target);

/// Euclidean-length-optimal path (Dijkstra); empty path when unreachable.
ShortestPath dijkstra_path(const UnitDiskGraph& g, NodeId source, NodeId target);

/// Component label per node (dead nodes get their own singleton labels).
std::vector<int> connected_components(const UnitDiskGraph& g);

/// True when u and v are in the same component: the bidirectional BFS,
/// stopping once its frontiers meet. An out-of-range id is connected to
/// nothing.
bool connected(const UnitDiskGraph& g, NodeId u, NodeId v);

/// Ids of the largest connected component.
std::vector<NodeId> largest_component(const UnitDiskGraph& g);

}  // namespace spr
