#include "shard/sharded_network.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "graph/spatial_grid.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace spr {

namespace {

void set_bit(std::uint64_t* bits, std::uint32_t i) {
  bits[i >> 6] |= 1ull << (i & 63);
}

/// Calls fn(key) for every set bit, ascending.
template <typename Fn>
void for_each_key(const std::uint64_t* bits, std::size_t words, Fn&& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      fn(static_cast<std::uint32_t>(w * 64 + b));
    }
  }
}

}  // namespace

NodeId ShardedNetwork::Tile::lid_of(NodeId gid) const noexcept {
  const auto owned_end = gids.begin() + static_cast<std::ptrdiff_t>(owned);
  auto it = std::lower_bound(gids.begin(), owned_end, gid);
  if (it != owned_end && *it == gid) {
    return static_cast<NodeId>(it - gids.begin());
  }
  it = std::lower_bound(owned_end, gids.end(), gid);
  if (it != gids.end() && *it == gid) {
    return static_cast<NodeId>(it - gids.begin());
  }
  return kInvalidNode;
}

ShardedNetwork::ShardedNetwork(const UnitDiskGraph& global, double edge_band,
                               Config config, TaskPool* pool)
    : pool_(pool) {
  band_ = edge_band < 0.0 ? global.range() : edge_band;
  slack_ = global.range();
  global_ = std::make_unique<UnitDiskGraph>(global);
  area_ = std::make_unique<InterestArea>(*global_, band_);
  tiling_ = Tiling(global_->bounds(), config.tile_rows, config.tile_cols,
                   global_->range() + slack_);
  build_partition();
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
  return {tile.gids.data(), tile.gids.size()};
}

std::size_t ShardedNetwork::tile_owned(int t) const noexcept {
  return tiles_[static_cast<std::size_t>(t)].owned;
}

void ShardedNetwork::build_partition() {
  const std::size_t n = global_->size();
  build_positions_ = global_->positions();
  const int tile_total = tiling_.tile_count();
  tiles_.resize(static_cast<std::size_t>(tile_total));

  // Membership: every node joins its owner tile plus, as a ghost, every
  // other tile within halo of its position. The serial id-ascending scan
  // leaves both segments of every gid list sorted.
  std::vector<std::vector<NodeId>> owned_lists(tiles_.size());
  std::vector<std::vector<NodeId>> ghost_lists(tiles_.size());
  std::vector<int> touching;
  for (NodeId u = 0; u < n; ++u) {
    const Vec2 p = build_positions_[u];
    const int owner = tiling_.owner_tile(p);
    owned_lists[static_cast<std::size_t>(owner)].push_back(u);
    touching.clear();
    tiling_.tiles_containing(p, touching);
    for (const int t : touching) {
      if (t != owner) ghost_lists[static_cast<std::size_t>(t)].push_back(u);
    }
  }

  parallel_for_blocked(
      pool_, tiles_.size(), 1, [&](std::size_t lo, std::size_t hi) {
        std::vector<NodeId> row;
        for (std::size_t t = lo; t < hi; ++t) {
          Tile& tile = tiles_[t];
          tile.labeler.reset();  // references the graph replaced below
          tile.owned = owned_lists[t].size();
          tile.gids = std::move(owned_lists[t]);
          tile.gids.insert(tile.gids.end(), ghost_lists[t].begin(),
                           ghost_lists[t].end());
          const std::size_t m = tile.gids.size();

          std::vector<Vec2> pos(m);
          std::vector<bool> alive(m);
          for (std::size_t lid = 0; lid < m; ++lid) {
            pos[lid] = global_->position(tile.gids[lid]);
            alive[lid] = global_->alive(tile.gids[lid]);
          }

          // Local CSR = the induced subgraph on the replica set, rows
          // remapped to local ids (lid order is not gid order across the
          // owned/ghost boundary, so each mapped row re-sorts). Owned rows
          // are complete by the halo invariant; ghost rows keep whatever is
          // locally present — ghosts are never evaluated here.
          std::vector<std::size_t> offsets(m + 1, 0);
          std::vector<NodeId> adjacency;
          for (std::size_t lid = 0; lid < m; ++lid) {
            offsets[lid] = adjacency.size();
            row.clear();
            for (const NodeId v : global_->neighbors(tile.gids[lid])) {
              const NodeId vl = tile.lid_of(v);
              if (vl != kInvalidNode) row.push_back(vl);
            }
            std::sort(row.begin(), row.end());
            adjacency.insert(adjacency.end(), row.begin(), row.end());
          }
          offsets[m] = adjacency.size();

          // Local grid bounds cover every replica now and after slack-bounded
          // drift (grid indexing clamps, so stragglers stay correct anyway).
          const Rect local_bounds = tiling_.tile_rect(static_cast<int>(t))
                                        .inflated(tiling_.halo() + slack_);
          tile.graph = std::make_unique<UnitDiskGraph>(UnitDiskGraph::from_parts(
              std::move(pos), global_->range(), local_bounds, std::move(alive),
              std::move(offsets), std::move(adjacency)));
          tile.graph->zones(nullptr);
          refresh_tile_area(tile);
          if (!tile.arena) {
            tile.arena = std::make_unique<Arena>(std::size_t{1} << 20);
          }
        }
      });

  // LID<->GID bijectivity: both gid segments strictly ascending (lid_of's
  // binary searches depend on it) and lid_of inverting gids[] exactly. The
  // whole scan exists only to verify, so Release drops it entirely.
  if (kDchecksEnabled) {
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const Tile& tile = tiles_[t];
      for (std::size_t lid = 0; lid < tile.gids.size(); ++lid) {
        const bool segment_start = lid == 0 || lid == tile.owned;
        SPR_DCHECK(segment_start || tile.gids[lid - 1] < tile.gids[lid],
                   "tile ", t, " gid segment not strictly ascending at lid ",
                   lid);
        SPR_DCHECK(tile.lid_of(tile.gids[lid]) == static_cast<NodeId>(lid),
                   "tile ", t, " lid_of(gids[", lid, "]) is not ", lid,
                   " for gid ", tile.gids[lid]);
      }
    }
  }
}

void ShardedNetwork::refresh_tile_area(Tile& tile) const {
  const std::size_t m = tile.gids.size();
  // Ghosts are pinned as edge nodes: ineligible, so the shard never
  // evaluates Definition 1 for a node whose neighborhood may be partial —
  // their status bits are mirrors of the owner's, nothing more.
  std::vector<bool> flags(m, true);
  for (std::size_t lid = 0; lid < tile.owned; ++lid) {
    flags[lid] = area_->is_edge_node(tile.gids[lid]);
  }
  tile.area = std::make_unique<InterestArea>(*tile.graph, std::move(flags),
                                             area_->hull());
}

void ShardedNetwork::begin_epoch(bool from_info) {
  parallel_for_blocked(
      pool_, tiles_.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          Tile& tile = tiles_[t];
          tile.labeler.reset();  // its scratch lives in the arena reset below
          tile.arena->reset();
          tile.labeler = std::make_unique<FlatLabeler>(
              *tile.graph, tile.area.get(), *tile.arena);
          tile.labeler->start_all_safe();
          if (from_info) {
            for (std::size_t lid = 0; lid < tile.gids.size(); ++lid) {
              const SafetyTuple& tp = info_.tuple(tile.gids[lid]);
              for (int ti = 0; ti < 4; ++ti) {
                if (!tp.is_safe(kAllZoneTypes[ti])) {
                  tile.labeler->set_status(static_cast<NodeId>(lid), ti,
                                           false);
                }
              }
            }
          } else {
            tile.labeler->initial_round(nullptr);
          }
          tile.flip_cursor = 0;
          tile.inbox.clear();
          tile.raise_inbox.clear();
          tile.raised_out.clear();
        }
      });
}

void ShardedNetwork::route_tiles_of(NodeId gid, std::vector<int>& out) const {
  out.clear();
  tiling_.tiles_containing(build_positions_[gid], out);
  const int owner = tiling_.owner_tile(build_positions_[gid]);
  if (std::find(out.begin(), out.end(), owner) == out.end()) {
    out.push_back(owner);
  }
}

void ShardedNetwork::demotion_exchange() {
  std::vector<int> route;
  bool more = true;
  while (more) {
    ++stats_.exchange_rounds;
    // Tile-local work in parallel: mirror the inbox demotions (ghost bits
    // fall, observers re-enqueue), then drain to the local fixpoint. Ghost
    // bits are stale only *upward* (a not-yet-mirrored demotion), so every
    // local flip justified here is justified against the true global bits.
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
    // global tuples and mirror into every other tile replicating the node.
    more = false;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      Tile& tile = tiles_[t];
      const auto flips = tile.labeler->flipped();
      for (std::size_t i = tile.flip_cursor; i < flips.size(); ++i) {
        const NodeId lid = FlatLabeler::key_node(flips[i]);
        const int ti = FlatLabeler::key_type(flips[i]);
        const NodeId gid = tile.gids[lid];
        info_.tuple(gid).set_safe(kAllZoneTypes[ti], false);
        route_tiles_of(gid, route);
        for (const int ot : route) {
          if (ot == static_cast<int>(t)) continue;
          const NodeId olid =
              tiles_[static_cast<std::size_t>(ot)].lid_of(gid);
          if (olid == kInvalidNode) continue;
          tiles_[static_cast<std::size_t>(ot)].inbox.push_back(
              FlatLabeler::key(olid, ti));
          ++stats_.halo_demotions;
          more = true;
        }
      }
      tile.flip_cursor = flips.size();
    }
  }

  // Quiescence barrier invariant: with every inbox drained and no key in
  // flight, each replica's status bits — owned and ghost alike — must agree
  // with the authoritative global tuples. A stale ghost here would let the
  // next epoch's flip tests read a world that never existed.
  if (kDchecksEnabled) {
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      const Tile& tile = tiles_[t];
      SPR_DCHECK(tile.inbox.empty(), "tile ", t,
                 " left the demotion exchange with a non-empty inbox");
      for (std::size_t lid = 0; lid < tile.gids.size(); ++lid) {
        const NodeId gid = tile.gids[lid];
        for (int ti = 0; ti < 4; ++ti) {
          SPR_DCHECK(
              tile.labeler->safe_bit(static_cast<NodeId>(lid), ti) ==
                  info_.tuple(gid).is_safe(kAllZoneTypes[ti]),
              "halo replica disagreement at quiescence: tile ", t, " lid ",
              lid, " gid ", gid, " type ", ti);
        }
      }
    }
  }
}

void ShardedNetwork::finish_epoch(const UnitDiskGraph& anchor_graph) {
  for (const Tile& tile : tiles_) {
    const LabelingStats& ls = tile.labeler->stats();
    stats_.incremental.reevaluations += ls.reevaluations;
    stats_.incremental.flips += ls.init_flips + ls.flips;
  }
  // Algorithm 2 chains greedy paths across tile borders, so anchors come
  // from the glued global graph — the identical code path (and inputs, the
  // statuses being at the same fixpoint) as the single-shard labelers.
  stats_.incremental.anchor_recomputes =
      recompute_all_anchors(anchor_graph, info_, pool_);
  // Per-epoch scratch peaks: the anchor pass just reset-and-filled the
  // calling thread's kernel arena, and every tile arena was reset in
  // begin_epoch — so bytes_allocated() is each arena's own epoch high
  // water, independent of what ran on the threads before (deterministic
  // across thread counts, like the rest of the stats).
  std::size_t high = FlatLabeler::scratch().bytes_allocated();
  for (const Tile& tile : tiles_) {
    high = std::max(high, tile.arena->bytes_allocated());
  }
  stats_.incremental.arena_high_water = high;
}

const SafetyInfo& ShardedNetwork::safety() {
  if (labeled_) return info_;
  stats_ = ShardStats{};
  info_ = SafetyInfo(std::vector<SafetyTuple>(global_->size()));
  global_->zones(pool_);  // the anchor pass below runs on the glued graph
  begin_epoch(/*from_info=*/false);
  demotion_exchange();
  finish_epoch(*global_);
  labeled_ = true;
  return info_;
}

void ShardedNetwork::apply_failures(const std::vector<NodeId>& failed) {
  safety();
  stats_ = ShardStats{};
  const std::size_t n = global_->size();

  auto next_global =
      std::make_unique<UnitDiskGraph>(global_->with_failures(failed, pool_));
  auto next_area =
      std::make_unique<InterestArea>(area_->after_failures(*next_global));
  for (const NodeId f : failed) {
    if (f < n) info_.tuple(f) = SafetyTuple{};
  }
  global_ = std::move(next_global);
  area_ = std::move(next_area);

  // Patch every tile replicating a casualty (local edges can only change
  // where a local copy died); the rest keep their graphs untouched. Edge
  // flags never change under failures (the hull spans dead positions too),
  // so tile areas stay as built.
  parallel_for_blocked(
      pool_, tiles_.size(), 1, [&](std::size_t lo, std::size_t hi) {
        std::vector<NodeId> local;
        for (std::size_t t = lo; t < hi; ++t) {
          Tile& tile = tiles_[t];
          local.clear();
          for (const NodeId f : failed) {
            const NodeId lid = tile.lid_of(f);
            if (lid != kInvalidNode) local.push_back(lid);
          }
          if (local.empty()) continue;
          tile.labeler.reset();
          UnitDiskGraph patched = tile.graph->with_failures(local, nullptr);
          *tile.graph = std::move(patched);
        }
      });

  begin_epoch(/*from_info=*/true);

  // Seeds: the single-shard rule — every alive node within radio range of a
  // casualty — evaluated at each node's owner. A node in range of a failed
  // position has that casualty replicated in its owner tile (range <=
  // halo), so per-tile disc queries on the local grids cover the exact
  // global seed set.
  std::vector<std::size_t> tile_seeds(tiles_.size(), 0);
  parallel_for_blocked(
      pool_, tiles_.size(), 1, [&](std::size_t lo, std::size_t hi) {
        std::vector<NodeId> near;
        for (std::size_t t = lo; t < hi; ++t) {
          Tile& tile = tiles_[t];
          near.clear();
          for (const NodeId f : failed) {
            const NodeId lid = tile.lid_of(f);
            if (lid == kInvalidNode) continue;
            tile.graph->grid().query_radius(tile.graph->position(lid),
                                            tile.graph->range(), lid, near);
          }
          std::sort(near.begin(), near.end());
          near.erase(std::unique(near.begin(), near.end()), near.end());
          std::size_t seeds = 0;
          for (const NodeId ul : near) {
            if (ul >= tile.owned) continue;  // ghosts seed at their owner
            if (!tile.graph->alive(ul)) continue;
            for (int ti = 0; ti < 4; ++ti) {
              if (tile.labeler->enqueue(ul, ti)) ++seeds;
            }
          }
          tile_seeds[t] = seeds;
        }
      });
  for (const std::size_t s : tile_seeds) stats_.incremental.seeds += s;

  demotion_exchange();
  finish_epoch(*global_);
}

void ShardedNetwork::apply_moves(const std::vector<Vec2>& positions,
                                 EdgeDiff* diff) {
  safety();
  stats_ = ShardStats{};
  const std::size_t n = global_->size();

  auto next_global = std::make_unique<UnitDiskGraph>(
      global_->with_moves(positions, diff, pool_));
  auto next_area = std::make_unique<InterestArea>(*next_global, band_);

  auto old_global = std::move(global_);
  auto old_area = std::move(area_);
  global_ = std::move(next_global);
  area_ = std::move(next_area);

  // Partition maintenance. While every node's cumulative drift since the
  // partition build stays within slack/2, the frozen membership still
  // satisfies the halo invariant (an owned node and any unit-disk neighbor
  // both lie within range + slack of the owner rect, by the triangle
  // inequality), so tiles patch their local graphs in place; larger drift
  // rebuilds the partition from current positions.
  const double limit = 0.5 * slack_;
  bool in_slack = true;
  for (NodeId u = 0; u < n && in_slack; ++u) {
    in_slack = distance_sq(global_->position(u), build_positions_[u]) <=
               limit * limit;
  }
  if (in_slack) {
    parallel_for_blocked(
        pool_, tiles_.size(), 1, [&](std::size_t lo, std::size_t hi) {
          std::vector<Vec2> local_pos;
          for (std::size_t t = lo; t < hi; ++t) {
            Tile& tile = tiles_[t];
            const std::size_t m = tile.gids.size();
            local_pos.resize(m);
            bool any_moved = false;
            for (std::size_t lid = 0; lid < m; ++lid) {
              local_pos[lid] = global_->position(tile.gids[lid]);
              any_moved =
                  any_moved ||
                  !(local_pos[lid] ==
                    tile.graph->position(static_cast<NodeId>(lid)));
            }
            tile.labeler.reset();
            if (any_moved) {
              UnitDiskGraph patched =
                  tile.graph->with_moves(local_pos, nullptr, nullptr);
              *tile.graph = std::move(patched);
            }
            refresh_tile_area(tile);  // the hull (and so the band) moved
          }
        });
  } else {
    stats_.repartitions = 1;
    build_partition();
  }

  begin_epoch(/*from_info=*/true);

  // The move frontier — update_safety_after_moves' own walk, run on the
  // glued snapshots against the old labeling. Seeds then route to each
  // pair's owner tile.
  const UnitDiskGraph& after = *global_;
  const std::size_t key_words = (4 * n + 63) / 64;
  std::vector<std::uint64_t> touched((n + 63) / 64, 0);
  std::vector<std::uint64_t> demote_seed(key_words, 0);
  std::vector<std::uint64_t> promote_src(key_words, 0);
  mark_move_frontier(*old_global, *old_area, after, *area_, info_,
                     touched.data(), demote_seed.data(), promote_src.data(),
                     pool_);

  // Promotion exchange: cluster raises run at each source's owner; raises
  // that reach a ghost forward to that node's owner, whose full
  // neighborhood continues the flood — every global edge has both endpoints
  // replicated at each endpoint's owner, so the union of the per-tile
  // floods is the global touched-cluster raise, by induction over rounds.
  bool raising = false;
  for_each_key(promote_src.data(), key_words, [&](std::uint32_t k) {
    const NodeId gid = FlatLabeler::key_node(k);
    const int owner = tiling_.owner_tile(build_positions_[gid]);
    Tile& tile = tiles_[static_cast<std::size_t>(owner)];
    tile.raise_inbox.push_back(
        FlatLabeler::key(tile.lid_of(gid), FlatLabeler::key_type(k)));
    raising = true;
  });
  std::vector<std::uint64_t> raised_global(key_words, 0);
  while (raising) {
    parallel_for_blocked(
        pool_, tiles_.size(), 1, [&](std::size_t lo, std::size_t hi) {
          for (std::size_t t = lo; t < hi; ++t) {
            Tile& tile = tiles_[t];
            tile.raised_out.clear();
            if (tile.raise_inbox.empty()) continue;
            const auto raised = tile.labeler->raise_clusters(
                {tile.raise_inbox.data(), tile.raise_inbox.size()}, nullptr);
            tile.raised_out.assign(raised.begin(), raised.end());
            tile.raise_inbox.clear();
          }
        });
    raising = false;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
      Tile& tile = tiles_[t];
      for (const std::uint32_t k : tile.raised_out) {
        const NodeId lid = FlatLabeler::key_node(k);
        const int ti = FlatLabeler::key_type(k);
        const NodeId gid = tile.gids[lid];
        if (lid < tile.owned) {
          set_bit(raised_global.data(), FlatLabeler::key(gid, ti));
        } else {
          const int owner = tiling_.owner_tile(build_positions_[gid]);
          Tile& ot = tiles_[static_cast<std::size_t>(owner)];
          const NodeId olid = ot.lid_of(gid);
          // Already safe at the owner means the owner's own flood raised it
          // (both copies started from info_), so it is already recorded.
          if (!ot.labeler->safe_bit(olid, ti)) {
            ot.raise_inbox.push_back(FlatLabeler::key(olid, ti));
            ++stats_.halo_raises;
            raising = true;
          }
        }
      }
    }
  }

  // Sync-up: every raised pair goes safe in the tuples and in *all* its
  // replicas (a stale-low ghost bit would let a neighbor's demotion pass
  // unjustified), sheds its stale anchors, and re-enters the demotion
  // worklist as an optimistic raise.
  std::vector<int> route;
  for_each_key(raised_global.data(), key_words, [&](std::uint32_t k) {
    const NodeId gid = FlatLabeler::key_node(k);
    const int ti = FlatLabeler::key_type(k);
    const ZoneType t = kAllZoneTypes[ti];
    info_.tuple(gid).set_safe(t, true);
    info_.tuple(gid).anchors_for(t) = ShapeAnchors{};
    ++stats_.incremental.promotions;
    route_tiles_of(gid, route);
    for (const int rt : route) {
      Tile& tile = tiles_[static_cast<std::size_t>(rt)];
      const NodeId rlid = tile.lid_of(gid);
      if (rlid == kInvalidNode) continue;
      tile.labeler->set_status(rlid, ti, true);
    }
    set_bit(demote_seed.data(), k);
  });

  // Demotion seeds enqueue at each pair's owner; cross-halo consequences
  // travel through the exchange.
  std::size_t seeds = 0;
  for_each_key(demote_seed.data(), key_words, [&](std::uint32_t k) {
    const NodeId gid = FlatLabeler::key_node(k);
    if (!after.alive(gid)) return;
    const int owner = tiling_.owner_tile(build_positions_[gid]);
    Tile& tile = tiles_[static_cast<std::size_t>(owner)];
    if (tile.labeler->enqueue(tile.lid_of(gid), FlatLabeler::key_type(k))) {
      ++seeds;
    }
  });
  stats_.incremental.seeds = seeds;

  demotion_exchange();
  finish_epoch(after);
}

}  // namespace spr
