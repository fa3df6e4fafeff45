#pragma once

/// \file unit_disk.h
/// The wireless substrate: a unit-disk graph G = (V, E) where an undirected
/// edge uv exists iff |L(u) - L(v)| <= range (all sensors share one
/// communication range, as the paper assumes).

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "geometry/rect.h"
#include "geometry/vec2.h"
#include "graph/node.h"
#include "graph/quadrant_csr.h"

namespace spr {

class SpatialGrid;
class TaskPool;

/// The edge delta between a graph and a moved sibling: the unit-disk edges
/// that appeared and disappeared when a subset of nodes changed position.
/// Pairs are normalized (first < second) and sorted ascending, so the diff
/// is deterministic regardless of which endpoint moved.
struct EdgeDiff {
  std::vector<std::pair<NodeId, NodeId>> added;
  std::vector<std::pair<NodeId, NodeId>> removed;
  std::size_t moved_nodes = 0;  ///< points whose coordinates changed
};

/// Whether `diff` satisfies the normalization contract: every pair has
/// first < second, both lists are sorted ascending and duplicate-free, and
/// no pair appears in both (an edge cannot be added and removed by one
/// epoch). `with_moves` DCHECKs this on every diff it emits; consumers
/// patching state from an externally supplied diff should too.
bool edge_diff_normalized(const EdgeDiff& diff);

/// Immutable unit-disk graph over a fixed set of node positions.
///
/// Neighbor lists are stored in CSR form and sorted by node id. The optional
/// `alive` mask models failed nodes: dead nodes keep their position but have
/// no incident edges (used by the failure-dynamics scenario and tests).
///
/// **Block fill.** Construction runs one radius query per alive node,
/// block by block: each block of `kBuildBlock` consecutive ids fills one
/// buffer with its rows (each sorted ascending, dead nodes filtered out) and
/// writes their lengths, one prefix sum over the lengths gives the CSR
/// offsets, and each block's buffer is copied to its offset. With a
/// `build_pool` the blocks (and the copies) fan out over the pool; every
/// block lands at the same offset whichever thread filled it, so the graph
/// is bit-identical to a serial build. The pool is only used during
/// construction (never stored).
/// Callers running *on* a pool worker (e.g. sweep cells) must pass nullptr —
/// blocking on the same pool from one of its workers deadlocks.
class UnitDiskGraph {
 public:
  /// Consecutive node ids per block of the construction's block fill.
  static constexpr std::size_t kBuildBlock = 512;

  /// Builds adjacency with a spatial grid; O(n + |E|) expected. Every
  /// coordinate must be finite (checked).
  UnitDiskGraph(std::vector<Vec2> positions, double range, Rect bounds,
                TaskPool* build_pool = nullptr);

  /// As above with an aliveness mask (`alive.size() == positions.size()`).
  UnitDiskGraph(std::vector<Vec2> positions, double range, Rect bounds,
                const std::vector<bool>& alive, TaskPool* build_pool = nullptr);

  std::size_t size() const noexcept { return positions_.size(); }
  double range() const noexcept { return range_; }
  Rect bounds() const noexcept { return bounds_; }

  Vec2 position(NodeId u) const noexcept { return positions_[u]; }
  const std::vector<Vec2>& positions() const noexcept { return positions_; }
  bool alive(NodeId u) const noexcept { return alive_[u]; }

  /// Sorted neighbor ids of u (N(u) in the paper). Dead nodes have none.
  std::span<const NodeId> neighbors(NodeId u) const noexcept {
    return {adjacency_.data() + offsets_[u], offsets_[u + 1] - offsets_[u]};
  }

  std::size_t degree(NodeId u) const noexcept {
    return offsets_[u + 1] - offsets_[u];
  }

  /// Start of u's row in the flat adjacency array (CSR offset). Row blocks
  /// pack back-to-back in id order; QuadrantZones mirrors this layout.
  std::size_t neighbor_offset(NodeId u) const noexcept { return offsets_[u]; }

  /// Total directed adjacency entries (2 * edge_count()).
  std::size_t directed_edge_count() const noexcept { return adjacency_.size(); }

  /// The quadrant-bucketed neighbor view (graph/quadrant_csr.h) of this
  /// topology epoch: lazy, memoized, thread-safe — built on first call.
  /// `with_failures` / `with_moves` siblings inherit it *patched* (stale
  /// rows re-bucketed, the rest block-copied) instead of rebuilt whenever
  /// the parent had built it, so steady-state failure waves and mobility
  /// re-pins never pay a full re-bucketing. `build_pool` parallelizes a
  /// first-call build (bit-identical to serial); ignored once built.
  const QuadrantZones& zones(TaskPool* build_pool = nullptr) const;

  /// Whether zones() has been built (observation only — never builds).
  bool has_zones() const noexcept;

  bool are_neighbors(NodeId u, NodeId v) const noexcept;

  std::size_t edge_count() const noexcept { return adjacency_.size() / 2; }
  double average_degree() const noexcept;

  /// A copy of this graph with the given nodes marked dead (edges removed;
  /// out-of-range and already-dead ids are ignored). Patched, not rebuilt:
  /// each alive row is its old row minus the dead, rows without a dead
  /// neighbor block-copy, and no radius query runs — the CSR is identical
  /// to a from-scratch build with the same aliveness (tests enforce it).
  /// Reuses this graph's spatial grid (positions are identical), so repeated
  /// failure batches never re-bucket the point set. The patch is one linear
  /// pass; `build_pool` is accepted for symmetry with `with_moves` and is
  /// not used.
  UnitDiskGraph with_failures(const std::vector<NodeId>& failed,
                              TaskPool* build_pool = nullptr) const;

  /// A copy of this graph over moved node positions, built *incrementally*:
  /// the spatial grid is copied and `SpatialGrid::relocate`d (unmoved points
  /// never re-bucket), only moved nodes re-run their radius query, and the
  /// neighbor lists of unmoved nodes are patched from the edge delta — the
  /// resulting CSR is bit-identical to a from-scratch build over
  /// `new_positions` (tests enforce offsets+adjacency equality). Aliveness
  /// carries over: dead nodes move but stay edgeless. `new_positions` must
  /// have exactly size() entries, every coordinate finite (both checked).
  /// `diff`, when non-null, receives the added/removed edge sets (alive
  /// endpoints only). The moved nodes' rows take the construction's block
  /// fill, on `build_pool` when they span more than one block.
  UnitDiskGraph with_moves(const std::vector<Vec2>& new_positions,
                           EdgeDiff* diff = nullptr,
                           TaskPool* build_pool = nullptr) const;

  /// The spatial index the adjacency was built with; shared across
  /// `with_failures` copies.
  const SpatialGrid& grid() const noexcept { return *grid_; }

 private:
  /// Adopts fully built CSR arrays (the with_failures / with_moves patch
  /// paths).
  struct PatchedTag {};
  UnitDiskGraph(PatchedTag, std::vector<Vec2> positions, double range,
                Rect bounds, std::shared_ptr<const SpatialGrid> grid,
                std::vector<bool> alive, std::vector<std::size_t> offsets,
                std::vector<NodeId> adjacency);

  void build(const std::vector<bool>& alive, TaskPool* build_pool);

  /// Installs a pre-built quadrant view (the with_failures/with_moves patch
  /// path); zones() then never rebuilds it.
  void adopt_zones(QuadrantZones zones) const;

  /// Lazily built quadrant view. Heap-held behind shared_ptr so the graph
  /// stays movable/copyable (copies share the cache — positions and
  /// adjacency are identical by construction).
  struct ZonesCache {
    std::once_flag once;
    std::atomic<bool> built{false};
    QuadrantZones zones;
  };

  std::vector<Vec2> positions_;
  double range_;
  Rect bounds_;
  std::shared_ptr<const SpatialGrid> grid_;
  std::vector<bool> alive_;
  std::vector<std::size_t> offsets_;  // size() + 1 entries
  std::vector<NodeId> adjacency_;
  mutable std::shared_ptr<ZonesCache> zones_cache_;
};

}  // namespace spr
