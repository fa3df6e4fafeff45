#include "shard/sharded_network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "core/network.h"
#include "safety/labeling.h"
#include "test_helpers.h"
#include "util/task_pool.h"

namespace spr {
namespace {

std::vector<Vec2> jitter_positions(const std::vector<Vec2>& positions,
                                   const Rect& field, double magnitude,
                                   Rng& rng) {
  std::vector<Vec2> moved = positions;
  for (Vec2& p : moved) {
    p.x = std::clamp(p.x + rng.uniform(-magnitude, magnitude), field.lo().x,
                     field.hi().x);
    p.y = std::clamp(p.y + rng.uniform(-magnitude, magnitude), field.lo().y,
                     field.hi().y);
  }
  return moved;
}

std::vector<NodeId> draw_casualties(const UnitDiskGraph& g, Rng& rng,
                                    int count) {
  std::vector<NodeId> failed;
  while (static_cast<int>(failed.size()) < count) {
    const NodeId u = static_cast<NodeId>(rng.next_below(g.size()));
    if (!g.alive(u)) continue;
    if (std::find(failed.begin(), failed.end(), u) == failed.end()) {
      failed.push_back(u);
    }
  }
  return failed;
}

/// The owner lists of every tile: each node owned exactly once, by the tile
/// holding its current position, and each tile's ghosts exactly the
/// non-owned neighbors of its owned nodes, both segments ascending.
void expect_owner_lists(const ShardedNetwork& sharded,
                        const std::string& where) {
  const UnitDiskGraph& g = sharded.graph();
  std::vector<int> owner(g.size(), -1);
  for (int t = 0; t < sharded.tile_count(); ++t) {
    const auto members = sharded.tile_members(t);
    const std::size_t owned = sharded.tile_owned(t);
    ASSERT_LE(owned, members.size()) << where;
    for (std::size_t i = 0; i < owned; ++i) {
      EXPECT_EQ(owner[members[i]], -1)
          << where << ": node " << members[i] << " owned twice";
      owner[members[i]] = t;
    }
  }
  for (NodeId u = 0; u < g.size(); ++u) {
    EXPECT_EQ(owner[u], sharded.tiling().owner_tile(g.position(u)))
        << where << ": node " << u;
  }
  for (int t = 0; t < sharded.tile_count(); ++t) {
    const auto members = sharded.tile_members(t);
    const auto owned_end =
        members.begin() + static_cast<std::ptrdiff_t>(sharded.tile_owned(t));
    std::vector<NodeId> ghosts;
    for (auto it = members.begin(); it != owned_end; ++it) {
      for (const NodeId v : g.neighbors(*it)) {
        if (owner[v] != t) ghosts.push_back(v);
      }
    }
    std::sort(ghosts.begin(), ghosts.end());
    ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
    EXPECT_TRUE(std::is_sorted(members.begin(), owned_end)) << where;
    EXPECT_EQ(std::vector<NodeId>(owned_end, members.end()), ghosts)
        << where << ": ghosts of tile " << t;
  }
}

const std::vector<std::pair<int, int>>& tile_grids() {
  static const std::vector<std::pair<int, int>> grids = {
      {1, 1}, {2, 2}, {3, 2}, {4, 4}};
  return grids;
}

/// Shard-count invariance of the from-scratch labeling: statuses AND
/// anchors (SafetyInfo equality covers both) are bit-identical to the
/// single-shard compute_safety for every tile grid, model and seed.
TEST(ShardedLabeling, ComputeMatchesSingleShardAcrossGrids) {
  for (const std::uint64_t seed : test::property_seeds()) {
    for (const DeployModel model :
         {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
      Network net = test::random_network(350, seed, model);
      const SafetyInfo single =
          compute_safety(net.graph(), net.interest_area());
      for (const auto& [rows, cols] : tile_grids()) {
        ShardedNetwork sharded(net.graph(), -1.0,
                               ShardedNetwork::Config{rows, cols});
        EXPECT_EQ(sharded.safety(), single)
            << "seed " << seed << " model " << static_cast<int>(model)
            << " grid " << rows << "x" << cols;
      }
    }
  }
}

/// The partition itself: every node owned exactly once, and every neighbor
/// of an owned node is listed in the tile (the ghost ring the local flip
/// evaluation reads).
TEST(ShardedLabeling, PartitionOwnsEachNodeOnceAndCoversNeighborhoods) {
  Network net = test::random_network(400, 11, DeployModel::kForbiddenAreas);
  ShardedNetwork sharded(net.graph(), -1.0, ShardedNetwork::Config{3, 2});
  expect_owner_lists(sharded, "built");
  std::vector<int> owners(net.graph().size(), 0);
  for (int t = 0; t < sharded.tile_count(); ++t) {
    const auto members = sharded.tile_members(t);
    const std::size_t owned = sharded.tile_owned(t);
    ASSERT_LE(owned, members.size());
    EXPECT_TRUE(std::is_sorted(members.begin(),
                               members.begin() + static_cast<long>(owned)));
    EXPECT_TRUE(std::is_sorted(members.begin() + static_cast<long>(owned),
                               members.end()));
    for (std::size_t i = 0; i < owned; ++i) {
      ++owners[members[i]];
      for (const NodeId v : net.graph().neighbors(members[i])) {
        EXPECT_TRUE(std::find(members.begin(), members.end(), v) !=
                    members.end())
            << "neighbor " << v << " of owned node " << members[i]
            << " missing from tile " << t;
      }
    }
  }
  for (const int c : owners) EXPECT_EQ(c, 1);
}

/// Results and exchange stats are bit-identical for every thread count —
/// per-tile drains are serial and routing runs in tile order between
/// barriers, so the pool only changes who executes, not what happens.
TEST(ShardedLabeling, IdenticalAcrossThreadCounts) {
  Network net = test::random_network(500, 21, DeployModel::kForbiddenAreas);
  ShardedNetwork serial(net.graph(), -1.0, ShardedNetwork::Config{2, 2});
  const SafetyInfo base = serial.safety();
  const ShardStats& base_stats = serial.last_stats();
  for (const int threads : {2, 5}) {
    TaskPool pool(threads);
    ShardedNetwork sharded(net.graph(), -1.0, ShardedNetwork::Config{2, 2},
                           &pool);
    EXPECT_EQ(sharded.safety(), base) << threads << " threads";
    EXPECT_EQ(sharded.last_stats().exchange_rounds,
              base_stats.exchange_rounds);
    EXPECT_EQ(sharded.last_stats().halo_demotions, base_stats.halo_demotions);
    EXPECT_EQ(sharded.last_stats().incremental.flips,
              base_stats.incremental.flips);
  }
}

/// Staged failure waves continue the labeling shard-locally with halo
/// mirroring; after every wave the result equals a from-scratch
/// compute_safety on the degraded graph.
TEST(ShardedLabeling, StagedFailureWavesMatchFullRecompute) {
  for (const std::uint64_t seed : test::property_seeds()) {
    for (const auto& [rows, cols] : tile_grids()) {
      Network net = test::random_network(350, seed,
                                         DeployModel::kForbiddenAreas);
      ShardedNetwork sharded(net.graph(), -1.0,
                             ShardedNetwork::Config{rows, cols});
      sharded.safety();
      Rng rng(seed ^ 0xf001);
      for (int wave = 0; wave < 3; ++wave) {
        sharded.apply_failures(draw_casualties(sharded.graph(), rng, 10));
        EXPECT_EQ(sharded.safety(),
                  compute_safety(sharded.graph(), sharded.area()))
            << "seed " << seed << " grid " << rows << "x" << cols << " wave "
            << wave;
      }
    }
  }
}

/// A hole punched at the 2x2 corner point demotes nodes in all four tiles,
/// so the demotion frontier must actually cross halos.
TEST(ShardedLabeling, CornerHoleCrossesHalos) {
  Deployment d = test::dense_grid_deployment(700, 9);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  ShardedNetwork sharded(g, -1.0, ShardedNetwork::Config{2, 2});
  sharded.safety();
  const Vec2 center = d.field.center();
  std::vector<NodeId> failed;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (distance(g.position(u), center) <= 30.0) failed.push_back(u);
  }
  ASSERT_GT(failed.size(), 5u);
  sharded.apply_failures(failed);
  EXPECT_GT(sharded.last_stats().incremental.flips, 0u);
  EXPECT_GT(sharded.last_stats().halo_demotions, 0u)
      << "a corner hole must mirror demotions across tiles";
  EXPECT_GT(sharded.last_stats().exchange_rounds, 1u);
  EXPECT_EQ(sharded.safety(), compute_safety(sharded.graph(), sharded.area()));
}

/// Mobility epochs: whole-field jitter moves some nodes into a neighboring
/// tile, and every epoch lands exactly on the from-scratch fixpoint.
TEST(ShardedLabeling, MobilityEpochsMatchFullRecompute) {
  std::size_t total_promotions = 0;
  for (const std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(350, seed,
                                       DeployModel::kForbiddenAreas);
    ShardedNetwork sharded(net.graph(), -1.0, ShardedNetwork::Config{2, 2});
    sharded.safety();
    Rng rng(seed ^ 0x5afe);
    for (int epoch = 0; epoch < 3; ++epoch) {
      const std::vector<Vec2> moved = jitter_positions(
          sharded.graph().positions(), net.deployment().field, 8.0, rng);
      sharded.apply_moves(moved);
      EXPECT_EQ(sharded.safety(),
                compute_safety(sharded.graph(), sharded.area()))
          << "seed " << seed << " epoch " << epoch;
      total_promotions += sharded.last_stats().incremental.promotions;
    }
  }
  EXPECT_GT(total_promotions, 0u)
      << "whole-field jitter should promote somewhere across the sweep";
}

/// Large motion (up to three radio ranges a side) still matches the
/// from-scratch fixpoint on the moved field.
TEST(ShardedLabeling, LargeMotionMatches) {
  Network net = test::random_network(400, 33, DeployModel::kForbiddenAreas);
  ShardedNetwork sharded(net.graph(), -1.0, ShardedNetwork::Config{2, 2});
  sharded.safety();
  Rng rng(0xb16);
  const std::vector<Vec2> moved = jitter_positions(
      sharded.graph().positions(), net.deployment().field, 60.0, rng);
  sharded.apply_moves(moved);
  EXPECT_EQ(sharded.safety(), compute_safety(sharded.graph(), sharded.area()));
}

/// Tiles follow their nodes. The first epoch reflects every node within
/// 5 m of the vertical tile border onto its other side; the second carries
/// 40 nodes of the lower-left tile through the field's center into the
/// upper-right one, several radio ranges away. After each, every node is
/// owned by the tile holding its new position, each tile's ghosts are
/// exactly the non-owned neighbors of its owned nodes, and the labeling
/// equals compute_safety on the moved field.
TEST(ShardedLabeling, MovesReassignOwnersAndGhosts) {
  Network net = test::random_network(400, 33, DeployModel::kForbiddenAreas);
  ShardedNetwork sharded(net.graph(), -1.0, ShardedNetwork::Config{2, 2});
  sharded.safety();
  const Rect field = net.deployment().field;
  const double border = sharded.tiling().tile_rect(0).hi().x;

  std::vector<Vec2> moved = sharded.graph().positions();
  int crossed = 0;
  for (Vec2& p : moved) {
    if (std::abs(p.x - border) >= 5.0 || p.x == border) continue;
    p.x = 2.0 * border - p.x;
    ++crossed;
  }
  ASSERT_GT(crossed, 5);
  sharded.apply_moves(moved);
  expect_owner_lists(sharded, "border epoch");
  EXPECT_EQ(sharded.safety(), compute_safety(sharded.graph(), sharded.area()));

  moved = sharded.graph().positions();
  int carried = 0;
  for (NodeId u = 0; u < moved.size() && carried < 40; ++u) {
    if (sharded.tiling().owner_tile(moved[u]) != 0) continue;
    moved[u] = field.lo() + field.hi() - moved[u];
    ++carried;
  }
  ASSERT_EQ(carried, 40);
  sharded.apply_moves(moved);
  expect_owner_lists(sharded, "far epoch");
  EXPECT_EQ(sharded.safety(), compute_safety(sharded.graph(), sharded.area()));
}

/// A cross-tile cluster raise: a wide rectangular hole straddles the tile
/// boundary, then fillers march into its *western* end only — every
/// promotion source lands in the left tile (fillers stay more than a radio
/// range west of the boundary), while the unsafe band hugging the hole
/// extends east into the right tile. The one global raise must reach the
/// right tile's share of the band.
TEST(ShardedLabeling, OneSidedHoleFillingRaisesAcrossTiles) {
  Deployment d = test::dense_grid_deployment(700, 13);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  ShardedNetwork sharded(g, -1.0, ShardedNetwork::Config{1, 2});
  sharded.safety();
  const Rect hole = Rect::from_bounds({40.0, 80.0}, {160.0, 120.0});
  std::vector<NodeId> failed;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (hole.contains(g.position(u))) failed.push_back(u);
  }
  ASSERT_GT(failed.size(), 10u);
  sharded.apply_failures(failed);
  ASSERT_EQ(sharded.safety(), compute_safety(sharded.graph(), sharded.area()));

  // Fillers come from the far west edge and land in x in [45, 72]: their
  // support discs (range 20) stay west of the x = 100 boundary, so no
  // promotion source is owned by the right tile.
  Rng rng(0xf111);
  std::vector<Vec2> moved = sharded.graph().positions();
  int movers = 0;
  for (NodeId u = 0; u < sharded.graph().size() && movers < 40; ++u) {
    if (!sharded.graph().alive(u)) continue;
    if (moved[u].x > 30.0) continue;
    moved[u] = {rng.uniform(45.0, 72.0), rng.uniform(85.0, 115.0)};
    ++movers;
  }
  ASSERT_GT(movers, 10);
  sharded.apply_moves(moved);
  EXPECT_GT(sharded.last_stats().incremental.promotions, 0u);
  EXPECT_EQ(sharded.safety(), compute_safety(sharded.graph(), sharded.area()));
}

/// The full dynamic chain — failures and moves interleaved over several
/// epochs, across tile grids and thread counts — stays bit-identical to
/// from-scratch recomputes and to the serial sharded run.
TEST(ShardedLabeling, InterleavedFailureAndMoveChainsMatch) {
  for (const std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(350, seed,
                                       DeployModel::kForbiddenAreas);
    TaskPool pool(4);
    ShardedNetwork serial(net.graph(), -1.0, ShardedNetwork::Config{2, 2});
    ShardedNetwork threaded(net.graph(), -1.0, ShardedNetwork::Config{2, 2},
                            &pool);
    ShardedNetwork coarse(net.graph(), -1.0, ShardedNetwork::Config{1, 1});
    serial.safety();
    threaded.safety();
    coarse.safety();
    Rng rng(seed ^ 0xc4a1);
    for (int epoch = 0; epoch < 4; ++epoch) {
      if (epoch % 2 == 0) {
        const auto failed = draw_casualties(serial.graph(), rng, 8);
        serial.apply_failures(failed);
        threaded.apply_failures(failed);
        coarse.apply_failures(failed);
      } else {
        const auto moved = jitter_positions(serial.graph().positions(),
                                            net.deployment().field, 10.0, rng);
        serial.apply_moves(moved);
        threaded.apply_moves(moved);
        coarse.apply_moves(moved);
      }
      const SafetyInfo full =
          compute_safety(serial.graph(), serial.area());
      EXPECT_EQ(serial.safety(), full) << "seed " << seed << " epoch " << epoch;
      EXPECT_EQ(threaded.safety(), full)
          << "seed " << seed << " epoch " << epoch << " (threaded)";
      EXPECT_EQ(coarse.safety(), full)
          << "seed " << seed << " epoch " << epoch << " (1x1)";
      EXPECT_EQ(threaded.last_stats().halo_demotions,
                serial.last_stats().halo_demotions);
      EXPECT_EQ(coarse.last_stats().halo_demotions, 0u);
    }
  }
}

/// create() draws the same deployment as Network::create for the same
/// config, so the sharded path drops into existing experiment plumbing.
TEST(ShardedLabeling, CreateMatchesNetworkCreate) {
  NetworkConfig config;
  config.deployment.node_count = 300;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 77;
  Network net = Network::create(config);
  ShardedNetwork sharded =
      ShardedNetwork::create(config, ShardedNetwork::Config{2, 2});
  ASSERT_EQ(sharded.graph().size(), net.graph().size());
  EXPECT_EQ(sharded.graph().positions(), net.graph().positions());
  EXPECT_EQ(sharded.graph().edge_count(), net.graph().edge_count());
  EXPECT_EQ(sharded.safety(), net.safety());
}

}  // namespace
}  // namespace spr
