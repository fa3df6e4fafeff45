#pragma once

/// \file sharded_network.h
/// Spatial tile sharding of a deployment: the safety labeling's demotion
/// fixpoint split into a grid of rectangular tiles, each owning the nodes
/// whose positions fall in its rect — the owner/ghost edge-cut of the
/// Galois exemplar, specialized to geometry, and the sub-lattice
/// decomposition of the message-passing Swendsen–Wang algorithms.
///
/// **Tiles are owner lists.** There is one graph, one quadrant view and one
/// interest area, all in global ids. A tile is the ascending list of ids
/// it owns (`Tiling::owner_tile` of each node's current position, computed
/// at construction and after every move) and one `FlatLabeler` bound to
/// the global graph with those ids as its scope: it evaluates and flips
/// only owned nodes and holds O(n/64) status words plus O(owned) worklist.
/// A tile's *ghosts* are the non-owned neighbors of its owned nodes — the
/// one-hop ring whose status bits its flip tests read. Ids stay global, so
/// a tile needs no graph of its own, and motion needs no bound: a moved
/// node simply gets the owner of its new position.
///
/// **Halo-synced demotion.** Each epoch every tile starts from one packed
/// snapshot of the labeling. `safety()` and the updaters then run the
/// tile-local worklists on the TaskPool with barrier-synchronized frontier
/// exchange: each round, every tile applies its inbox of demotion keys
/// (clear the ghost bit, re-enqueue owned observers) and drains its
/// worklist; between rounds, each new owned flip is written to the global
/// tuples and mirrored only into the tiles that own a neighbor of the
/// flipped node. Rounds repeat until no tile flips and no key crosses.
/// Stale ghost bits are always an *over*-approximation (bits only fall,
/// mirrors only lag), so a local flip justified against them is justified
/// globally — the exchange terminates in exactly the global greatest
/// fixpoint. The steps before the fixpoint run once over the global graph
/// through the helpers of safety/incremental.h: the failure seed rule, the
/// move frontier and the touched-cluster raise of mobility promotions.
///
/// **Invariance contract.** Statuses AND anchors are bit-identical to the
/// single-shard `compute_safety` / `update_safety_after_*` results for
/// every tile grid and thread count (the anchor pass of Algorithm 2 chains
/// first/last greedy paths across tile borders, so it runs on the global
/// graph — identical inputs, identical code path). Property tests assert
/// equality across {1x1, 2x2, 3x2, 4x4} grids, seeds, staged failure waves
/// and mobility epochs.

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
  std::size_t halo_demotions = 0;   ///< demotion keys mirrored across tiles
  IncrementalStats incremental;     ///< aggregate kernel counters
};

/// A deployment partitioned into spatial tiles with halo-synced safety
/// labeling. Owns the global graph and area (routing, anchors and
/// serialization address global ids) plus one owner list per tile.
class ShardedNetwork {
 public:
  /// The most tiles a grid may have. Each tile holds n/64 status words per
  /// zone type, and every caller uses at most 16 tiles.
  static constexpr std::int64_t kMaxTiles = 64;

  /// The tile grid: `tile_rows` and `tile_cols` at least 1, and at most
  /// `kMaxTiles` tiles in all (both checked by the constructor).
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

  /// Global ids tile `t` reads: owned ascending, then ghosts (the non-owned
  /// neighbors of owned ids) ascending. `tile_owned(t)` is the length of
  /// the owned prefix.
  std::span<const NodeId> tile_members(int t) const noexcept;
  std::size_t tile_owned(int t) const noexcept;

  /// The global safety labeling, computed by the halo exchange on first
  /// call — statuses and anchors bit-identical to
  /// `compute_safety(graph(), area())`.
  const SafetyInfo& safety();
  bool has_safety() const noexcept { return labeled_; }

  /// Stats of the most recent labeling epoch (compute or update).
  const ShardStats& last_stats() const noexcept { return stats_; }

  /// Marks `failed` dead and continues the labeling: the casualties'
  /// neighbors seed their owners' worklists, and demotion keys cross tiles
  /// only when the worklist frontier does. Equivalent to
  /// Network::with_failures + update_safety_after_failures (statuses and
  /// anchors; property tests assert equality). Forces the labeling if not
  /// yet built.
  void apply_failures(const std::vector<NodeId>& failed);

  /// Moves the whole node set to `positions` (size() entries): the global
  /// graph patches via with_moves, every node goes to the tile holding its
  /// new position, the touched clusters are raised once globally, and the
  /// demotion exchange closes the labeling. Equivalent to
  /// Network::with_moves + update_safety_after_moves.
  void apply_moves(const std::vector<Vec2>& positions);

 private:
  struct Tile {
    std::vector<NodeId> members;  ///< owned ascending, then ghosts ascending
    std::size_t owned = 0;
    std::unique_ptr<Arena> arena;  ///< retained across epochs
    // Per-epoch exchange state.
    std::unique_ptr<FlatLabeler> labeler;
    std::size_t flip_cursor = 0;
    std::vector<std::uint32_t> inbox;  ///< demotion keys to mirror
  };

  void assign_tiles();
  void begin_epoch(const FlatLabeler* snapshot);
  void demotion_exchange();
  void finish_epoch();

  Tiling tiling_;
  std::vector<Tile> tiles_;
  std::vector<std::uint8_t> owner_;  ///< owner tile of every node
  std::unique_ptr<UnitDiskGraph> global_;
  std::unique_ptr<InterestArea> area_;
  SafetyInfo info_;
  bool labeled_ = false;
  TaskPool* pool_ = nullptr;
  double band_ = 0.0;
  ShardStats stats_;
};

}  // namespace spr
