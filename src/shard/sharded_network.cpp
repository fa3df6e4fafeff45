#include "shard/sharded_network.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "util/check.h"
#include "util/task_pool.h"

namespace spr {

static_assert(ShardedNetwork::kMaxTiles <= 64,
              "a flip's reader tiles form one 64-bit mask");

ShardedNetwork::ShardedNetwork(const UnitDiskGraph& global, double edge_band,
                               Config config, TaskPool* pool)
    : pool_(pool) {
  SPR_CHECK(config.tile_rows >= 1 && config.tile_cols >= 1 &&
                std::int64_t{config.tile_rows} * config.tile_cols <= kMaxTiles,
            "ShardedNetwork: a ", config.tile_rows, "x", config.tile_cols,
            " tile grid needs rows and cols >= 1 and at most ", kMaxTiles,
            " tiles");
  band_ = edge_band < 0.0 ? global.range() : edge_band;
  global_ = std::make_unique<UnitDiskGraph>(global);
  area_ = std::make_unique<InterestArea>(*global_, band_);
  tiling_ = Tiling(global_->bounds(), config.tile_rows, config.tile_cols);
  tiles_.resize(static_cast<std::size_t>(tiling_.tile_count()));
  for (Tile& tile : tiles_) tile.arena = std::make_unique<Arena>();
  assign_tiles();
}

ShardedNetwork ShardedNetwork::create(const NetworkConfig& net_config,
                                      Config config) {
  Rng rng(net_config.seed);
  Deployment d = deploy(net_config.deployment, rng);
  UnitDiskGraph g(std::move(d.positions), d.radio_range, d.field,
                  net_config.build_pool);
  return ShardedNetwork(g, net_config.edge_band, config,
                        net_config.build_pool);
}

std::span<const NodeId> ShardedNetwork::tile_members(int t) const noexcept {
  const Tile& tile = tiles_[static_cast<std::size_t>(t)];
  return {tile.members.data(), tile.members.size()};
}

std::size_t ShardedNetwork::tile_owned(int t) const noexcept {
  return tiles_[static_cast<std::size_t>(t)].owned;
}

void ShardedNetwork::assign_tiles() {
  // Owners from current positions; the id-ascending scan leaves every owned
  // list sorted. Dead nodes are owned too (they carry the all-safe tuple).
  const std::size_t n = global_->size();
  owner_.resize(n);
  for (Tile& tile : tiles_) tile.members.clear();
  for (NodeId u = 0; u < n; ++u) {
    const int t = tiling_.owner_tile(global_->position(u));
    owner_[u] = static_cast<std::uint8_t>(t);
    tiles_[static_cast<std::size_t>(t)].members.push_back(u);
  }
  // Ghosts: the non-owned neighbors of owned nodes, the only foreign status
  // bits an owned flip test reads.
  parallel_for_blocked(
      pool_, tiles_.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          Tile& tile = tiles_[t];
          tile.owned = tile.members.size();
          for (std::size_t i = 0; i < tile.owned; ++i) {
            for (const NodeId v : global_->neighbors(tile.members[i])) {
              if (owner_[v] != t) tile.members.push_back(v);
            }
          }
          const auto ghosts =
              tile.members.begin() + static_cast<std::ptrdiff_t>(tile.owned);
          std::sort(ghosts, tile.members.end());
          tile.members.erase(std::unique(ghosts, tile.members.end()),
                             tile.members.end());
        }
      });
}

void ShardedNetwork::begin_epoch(const FlatLabeler* snapshot) {
  parallel_for_blocked(
      pool_, tiles_.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          Tile& tile = tiles_[t];
          tile.arena->reset();
          tile.labeler = std::make_unique<FlatLabeler>(
              *global_, area_.get(), *tile.arena,
              std::span<const NodeId>(tile.members.data(), tile.owned));
          if (snapshot != nullptr) {
            tile.labeler->start_from(*snapshot);
          } else {
            tile.labeler->start_all_safe();
            tile.labeler->initial_round(nullptr);
          }
          tile.flip_cursor = 0;
          tile.inbox.clear();
        }
      });
}

void ShardedNetwork::demotion_exchange() {
  bool more = true;
  while (more) {
    ++stats_.exchange_rounds;
    // Tile-local work in parallel: mirror the inbox demotions (ghost bits
    // fall, owned observers re-enqueue), then drain to the local fixpoint.
    // Ghost bits are stale only *upward* (a not-yet-mirrored demotion), so
    // every local flip justified here is justified against the true global
    // bits.
    parallel_for_blocked(
        pool_, tiles_.size(), 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            Tile& tile = tiles_[t];
            for (const std::uint32_t k : tile.inbox) {
              tile.labeler->mirror_demotion(FlatLabeler::key_node(k),
                                            FlatLabeler::key_type(k));
            }
            tile.inbox.clear();
            tile.labeler->drain(nullptr);
          }
        });
    // Serial routing barrier, tile order: new owned flips apply to the
    // global tuples and mirror into every other tile owning a neighbor of
    // the node — the only tiles whose flip tests read its bit.
    more = false;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      Tile& tile = tiles_[t];
      const auto flips = tile.labeler->flipped();
      for (std::size_t i = tile.flip_cursor; i < flips.size(); ++i) {
        const std::uint32_t k = flips[i];
        const NodeId u = FlatLabeler::key_node(k);
        info_.tuple(u).set_safe(kAllZoneTypes[FlatLabeler::key_type(k)],
                                false);
        std::uint64_t readers = 0;
        for (const NodeId v : global_->neighbors(u)) {
          readers |= 1ull << owner_[v];
        }
        readers &= ~(1ull << t);
        while (readers != 0) {
          const int ot = std::countr_zero(readers);
          readers &= readers - 1;
          tiles_[static_cast<std::size_t>(ot)].inbox.push_back(k);
          ++stats_.halo_demotions;
          more = true;
        }
      }
      tile.flip_cursor = flips.size();
    }
  }

  // Quiescence barrier invariant: with every inbox drained and no key in
  // flight, each tile's bits for its owned nodes and its ghosts must agree
  // with the authoritative global tuples. A stale ghost here would let a
  // flip test read a world that never existed.
  if (kDchecksEnabled) {
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const Tile& tile = tiles_[t];
      SPR_DCHECK(tile.inbox.empty(), "tile ", t,
                 " left the demotion exchange with a non-empty inbox");
      for (const NodeId u : tile.members) {
        for (int ti = 0; ti < 4; ++ti) {
          SPR_DCHECK(tile.labeler->safe_bit(u, ti) ==
                         info_.tuple(u).is_safe(kAllZoneTypes[ti]),
                     "tile ", t, " disagrees at quiescence on node ", u,
                     " type ", ti);
        }
      }
    }
  }
}

void ShardedNetwork::finish_epoch() {
  for (const Tile& tile : tiles_) {
    const LabelingStats& ls = tile.labeler->stats();
    stats_.incremental.reevaluations += ls.reevaluations;
    stats_.incremental.flips += ls.init_flips + ls.flips;
  }
  // Algorithm 2 chains greedy paths across tile borders, so anchors come
  // from the global graph — the identical code path (and inputs, the
  // statuses being at the same fixpoint) as the single-shard labelers.
  stats_.incremental.anchor_recomputes =
      recompute_all_anchors(*global_, info_, pool_);
  // Per-epoch scratch peaks: the anchor pass just reset-and-filled the
  // calling thread's kernel arena, and every tile arena was reset in
  // begin_epoch — so bytes_allocated() is each arena's own epoch high
  // water, independent of what ran on the threads before (deterministic
  // across thread counts, like the rest of the stats). The labelers end
  // with the epoch; the arenas keep their blocks for the next one.
  std::size_t high = FlatLabeler::scratch().bytes_allocated();
  for (Tile& tile : tiles_) {
    high = std::max(high, tile.arena->bytes_allocated());
    tile.labeler.reset();
  }
  stats_.incremental.arena_high_water = high;
}

const SafetyInfo& ShardedNetwork::safety() {
  if (labeled_) return info_;
  stats_ = ShardStats{};
  info_ = SafetyInfo(std::vector<SafetyTuple>(global_->size()));
  global_->zones(pool_);  // built once, before the tiles bind to it
  begin_epoch(nullptr);
  demotion_exchange();
  finish_epoch();
  labeled_ = true;
  return info_;
}

void ShardedNetwork::apply_failures(const std::vector<NodeId>& failed) {
  safety();
  stats_ = ShardStats{};
  const std::size_t n = global_->size();

  auto degraded =
      std::make_unique<UnitDiskGraph>(global_->with_failures(failed, pool_));
  area_ = std::make_unique<InterestArea>(area_->after_failures(*degraded));
  global_ = std::move(degraded);
  for (const NodeId f : failed) {
    if (f < n) info_.tuple(f) = SafetyTuple{};
  }
  global_->zones(pool_);  // patched forward by with_failures
  assign_tiles();         // the casualties' edges are gone from the ghosts

  {
    Arena& arena = FlatLabeler::scratch();
    arena.reset();
    FlatLabeler snapshot(*global_, nullptr, arena, {});
    snapshot.start_from(info_);
    begin_epoch(&snapshot);
  }

  // Seeds: the single-shard rule, each seed enqueued at its owner.
  std::vector<NodeId> seeds;
  failure_seed_nodes(*global_, failed, seeds);
  for (const NodeId u : seeds) {
    FlatLabeler& labeler = *tiles_[owner_[u]].labeler;
    for (int ti = 0; ti < 4; ++ti) {
      if (labeler.enqueue(u, ti)) ++stats_.incremental.seeds;
    }
  }

  demotion_exchange();
  finish_epoch();
}

void ShardedNetwork::apply_moves(const std::vector<Vec2>& positions) {
  safety();
  stats_ = ShardStats{};
  const std::size_t n = global_->size();

  std::unique_ptr<UnitDiskGraph> before = std::exchange(
      global_,
      std::make_unique<UnitDiskGraph>(global_->with_moves(positions, nullptr,
                                                          pool_)));
  std::unique_ptr<InterestArea> area_before =
      std::exchange(area_, std::make_unique<InterestArea>(*global_, band_));
  global_->zones(pool_);  // patched forward by with_moves
  assign_tiles();         // every node goes to the tile holding it now

  // The move frontier and the cluster raise of update_safety_after_moves,
  // run once over the global graph.
  const std::size_t key_words = (4 * n + 63) / 64;
  std::vector<std::uint64_t> touched((n + 63) / 64, 0);
  std::vector<std::uint64_t> demote_seed(key_words, 0);
  std::vector<std::uint64_t> promote_src(key_words, 0);
  mark_move_frontier(*before, *area_before, *global_, *area_, info_,
                     touched.data(), demote_seed.data(), promote_src.data(),
                     pool_);
  before.reset();
  area_before.reset();
  {
    Arena& arena = FlatLabeler::scratch();
    arena.reset();
    FlatLabeler snapshot(*global_, nullptr, arena, {});
    snapshot.start_from(info_);
    stats_.incremental.promotions =
        raise_touched_clusters(snapshot, promote_src.data(),
                               demote_seed.data(), info_, arena, pool_);
    begin_epoch(&snapshot);
  }

  // Demotion seeds enqueue at each pair's owner; cross-tile consequences
  // travel through the exchange.
  for_each_set_bit(demote_seed.data(), key_words, [&](std::uint32_t k) {
    const NodeId u = FlatLabeler::key_node(k);
    if (!global_->alive(u)) return;
    if (tiles_[owner_[u]].labeler->enqueue(u, FlatLabeler::key_type(k))) {
      ++stats_.incremental.seeds;
    }
  });

  demotion_exchange();
  finish_epoch();
}

}  // namespace spr
