#pragma once

/// \file sharded_network.h
/// Spatial tile sharding of a deployment: million-node fields as a grid of
/// rectangular tiles, each owning its own SpatialGrid / UnitDiskGraph /
/// QuadrantZones / FlatLabeler shard over *local* ids, glued back into the
/// global address space by LID<->GID maps (the owner/ghost structure of the
/// Galois edge-cut exemplar, specialized to geometry).
///
/// **Tiles and halos.** Every node is owned by exactly one tile (the tile
/// rect containing it at partition build). A tile also replicates, as
/// *ghosts*, every node within `halo` of its rect, where halo = radio range
/// + slack: an owned node's complete unit-disk neighborhood is then local,
/// so Definition 1's flip test for owned nodes never needs a remote read.
/// Ghost rows are intentionally partial (only locally-present neighbors) —
/// ghosts are never *evaluated* locally, they only contribute their status
/// bits, which the owning tile keeps authoritative.
///
/// **Halo-synced labeling.** `safety()` runs the labeling fixpoint as
/// tile-local worklists on the TaskPool with barrier-synchronized frontier
/// exchange: each round, every tile applies its inbox of cross-halo
/// demotion keys (mirror the ghost bit, re-enqueue local observers), drains
/// its own worklist, and the owned flips route to every other tile
/// replicating that node; rounds repeat until no tile flips and no key
/// crosses. Stale ghost bits are always an *over*-approximation (bits only
/// fall, mirrors only lag), so a local flip justified against inflated
/// ghost bits is justified globally — the exchange terminates in exactly
/// the global greatest fixpoint. Promotions (mobility) run the same way in
/// reverse first: cluster re-raises forward their crossing keys to the
/// neighbor's owner until quiescence, then every raised replica syncs up
/// before the demotion rounds start. The incremental updaters
/// (`apply_failures` / `apply_moves`) stay shard-local unless the worklist
/// frontier actually crosses a halo — a localized wave never wakes distant
/// tiles.
///
/// **Invariance contract.** Statuses AND anchors are bit-identical to the
/// single-shard `compute_safety` / `update_safety_after_*` results for
/// every tile grid and thread count (the anchor pass of Algorithm 2 chains
/// first/last greedy paths across tile borders, so it runs over the glued
/// global graph — identical inputs, identical code path). Property tests
/// assert equality across {1x1, 2x2, 4x4} grids, seeds, staged failure
/// waves and mobility epochs.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/network.h"
#include "deploy/interest_area.h"
#include "graph/unit_disk.h"
#include "safety/flat_kernel.h"
#include "safety/incremental.h"
#include "safety/labeling.h"
#include "shard/tiling.h"
#include "util/arena.h"

namespace spr {

class TaskPool;

/// What one sharded labeling epoch (compute or incremental update) did.
struct ShardStats {
  std::size_t exchange_rounds = 0;  ///< barrier rounds of the demotion loop
  std::size_t halo_demotions = 0;   ///< demotion keys mirrored across halos
  std::size_t halo_raises = 0;      ///< promotion sources forwarded to owners
  std::size_t repartitions = 0;     ///< 1 when this epoch rebuilt the tiling
  IncrementalStats incremental;     ///< aggregate kernel counters
};

/// A deployment partitioned into spatial tiles with halo-synced safety
/// labeling. Owns the glued global graph/area (routing, anchors and
/// serialization address global ids) plus one shard per tile.
class ShardedNetwork {
 public:
  /// The tile grid. Every tile's halo is two radio ranges wide: one range
  /// so an owned node's neighborhood is present locally, plus one range of
  /// slack. Mobility epochs whose cumulative drift since the last partition
  /// build stays within half the slack keep the tiling (tiles patch their
  /// local graphs incrementally); larger drift re-partitions from current
  /// positions.
  struct Config {
    int tile_rows = 2;
    int tile_cols = 2;
  };

  /// Partitions an existing global graph. The graph is copied (cheap CSR
  /// copy; the spatial grid and quadrant cache are shared). `edge_band` is
  /// the interest-area band (negative = one radio range), matching
  /// NetworkConfig semantics. `pool` parallelizes per-tile work across
  /// epochs and must outlive this object; results are bit-identical for
  /// every thread count.
  ShardedNetwork(const UnitDiskGraph& global, double edge_band, Config config,
                 TaskPool* pool = nullptr);

  /// Draws a deployment (as Network::create) and partitions it.
  static ShardedNetwork create(const NetworkConfig& net_config, Config config);

  const UnitDiskGraph& graph() const noexcept { return *global_; }
  const InterestArea& area() const noexcept { return *area_; }
  const Tiling& tiling() const noexcept { return tiling_; }
  double edge_band() const noexcept { return band_; }
  int tile_count() const noexcept { return tiling_.tile_count(); }

  /// Global ids replicated in tile `t`: owned ascending, then ghosts
  /// ascending. `tile_owned(t)` is the length of the owned prefix.
  std::span<const NodeId> tile_members(int t) const noexcept;
  std::size_t tile_owned(int t) const noexcept;

  /// The global safety labeling, computed by the halo exchange on first
  /// call — statuses and anchors bit-identical to
  /// `compute_safety(graph(), area())`.
  const SafetyInfo& safety();
  bool has_safety() const noexcept { return labeled_; }

  /// Stats of the most recent labeling epoch (compute or update).
  const ShardStats& last_stats() const noexcept { return stats_; }

  /// Marks `failed` dead everywhere they are replicated, patches each
  /// affected tile's graph/zones, and continues the labeling shard-locally
  /// — demotion keys cross halos only when the worklist frontier does.
  /// Equivalent to Network::with_failures + update_safety_after_failures
  /// (statuses and anchors; property tests assert equality). Forces the
  /// labeling if not yet built.
  void apply_failures(const std::vector<NodeId>& failed);

  /// Moves the whole node set to `positions` (size() entries): the global
  /// graph patches via with_moves, tiles patch locally while cumulative
  /// drift permits (else the partition rebuilds), and the labeling
  /// continues through the bidirectional promote/demote exchange.
  /// Equivalent to Network::with_moves + update_safety_after_moves.
  /// `diff`, when non-null, receives the global edge delta.
  void apply_moves(const std::vector<Vec2>& positions, EdgeDiff* diff = nullptr);

 private:
  struct Tile {
    std::vector<NodeId> gids;  ///< owned ascending, then ghosts ascending
    std::size_t owned = 0;
    std::unique_ptr<UnitDiskGraph> graph;  ///< local-id shard graph
    std::unique_ptr<InterestArea> area;    ///< global edge flags; ghosts pinned
    std::unique_ptr<Arena> arena;          ///< retained across epochs
    // Per-epoch exchange state.
    std::unique_ptr<FlatLabeler> labeler;
    std::size_t flip_cursor = 0;
    std::vector<std::uint32_t> inbox;        ///< local demotion keys to mirror
    std::vector<std::uint32_t> raise_inbox;  ///< local promotion flood sources
    std::vector<std::uint32_t> raised_out;   ///< scratch: last raise results

    /// Local id of `gid` (binary search of both segments); kInvalidNode when
    /// not replicated here.
    NodeId lid_of(NodeId gid) const noexcept;
  };

  void build_partition();
  void refresh_tile_area(Tile& tile) const;
  void begin_epoch(bool from_info);
  void route_tiles_of(NodeId gid, std::vector<int>& out) const;
  void demotion_exchange();
  void finish_epoch(const UnitDiskGraph& anchor_graph);

  Tiling tiling_;
  std::vector<Tile> tiles_;
  std::unique_ptr<UnitDiskGraph> global_;
  std::unique_ptr<InterestArea> area_;
  std::vector<Vec2> build_positions_;  ///< positions at partition build
  SafetyInfo info_;
  bool labeled_ = false;
  TaskPool* pool_ = nullptr;
  double band_ = 0.0;
  double slack_ = 0.0;
  ShardStats stats_;
};

}  // namespace spr
