#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "deploy/deployment.h"
#include "graph/spatial_grid.h"
#include "graph/unit_disk.h"
#include "mobility/waypoint.h"
#include "test_helpers.h"
#include "util/task_pool.h"

namespace spr {
namespace {

Deployment draw(int nodes, std::uint64_t seed,
                DeployModel model = DeployModel::kIdeal) {
  DeploymentConfig config;
  config.node_count = nodes;
  config.model = model;
  Rng rng(seed);
  return deploy(config, rng);
}

/// Moves every node by an independent bounded offset (clamped to the
/// field), returning the new position vector.
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

bool same_adjacency(const UnitDiskGraph& a, const UnitDiskGraph& b) {
  if (a.size() != b.size()) return false;
  for (NodeId u = 0; u < a.size(); ++u) {
    auto na = a.neighbors(u);
    auto nb = b.neighbors(u);
    if (!std::equal(na.begin(), na.end(), nb.begin(), nb.end())) return false;
  }
  return true;
}

/// A relocated grid must answer every query exactly like a grid built from
/// scratch over the moved point set (same ids, same order).
TEST(SpatialGridRelocate, MatchesFreshBuildOnQueries) {
  for (std::uint64_t seed : test::property_seeds()) {
    Deployment dep = draw(300, seed);
    SpatialGrid grid(dep.positions, dep.field, dep.radio_range);

    Rng rng(seed ^ 0x90e);
    std::vector<Vec2> moved_positions =
        jitter_positions(dep.positions, dep.field, 30.0, rng);
    // Move only a subset: every third node keeps its old position.
    std::vector<NodeId> moved_ids;
    for (NodeId u = 0; u < moved_positions.size(); ++u) {
      if (u % 3 == 0) {
        moved_positions[u] = dep.positions[u];
        continue;
      }
      moved_ids.push_back(u);
    }
    grid.relocate(moved_ids, dep.positions, moved_positions);
    SpatialGrid fresh(moved_positions, dep.field, dep.radio_range);

    for (int probe = 0; probe < 64; ++probe) {
      Vec2 center{rng.uniform(dep.field.lo().x, dep.field.hi().x),
                  rng.uniform(dep.field.lo().y, dep.field.hi().y)};
      double radius = rng.uniform(1.0, 45.0);
      std::vector<NodeId> got, want;
      grid.query_radius(center, radius, kInvalidNode, got);
      fresh.query_radius(center, radius, kInvalidNode, want);
      ASSERT_EQ(got, want) << "seed " << seed << " probe " << probe;
    }
    // Every point is stored at exactly its new coordinate.
    for (NodeId u = 0; u < moved_positions.size(); ++u) {
      std::vector<NodeId> at;
      grid.query_radius(moved_positions[u], 0.0, kInvalidNode, at);
      ASSERT_NE(std::find(at.begin(), at.end(), u), at.end()) << "node " << u;
    }
  }
}

/// Moves every fourth node by a bounded offset, leaving the other three
/// quarters exactly in place — below the adaptive cutover threshold, so
/// with_moves takes the relocate-and-patch branch rather than delegating
/// to a fresh build.
std::vector<Vec2> jitter_subset(const std::vector<Vec2>& positions,
                                const Rect& field, double magnitude,
                                Rng& rng) {
  std::vector<Vec2> moved = positions;
  for (std::size_t i = 0; i < moved.size(); i += 4) {
    moved[i].x = std::clamp(moved[i].x + rng.uniform(-magnitude, magnitude),
                            field.lo().x, field.hi().x);
    moved[i].y = std::clamp(moved[i].y + rng.uniform(-magnitude, magnitude),
                            field.lo().y, field.hi().y);
  }
  return moved;
}

/// with_moves must produce exactly the adjacency a from-scratch build over
/// the new positions produces — offsets, order, and aliveness included —
/// on *both* internal paths: whole-field motion (the adaptive fresh-build
/// cutover) and subset motion (the relocate-and-patch branch).
TEST(UnitDiskMoves, PatchedAdjacencyBitIdenticalToFreshBuild) {
  for (std::uint64_t seed : test::property_seeds()) {
    for (bool subset : {false, true}) {
      Deployment dep = draw(350, seed, DeployModel::kForbiddenAreas);
      UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
      Rng rng(seed ^ 0x3a1);
      std::vector<Vec2> moved =
          subset ? jitter_subset(dep.positions, dep.field, 25.0, rng)
                 : jitter_positions(dep.positions, dep.field, 25.0, rng);

      EdgeDiff diff;
      UnitDiskGraph patched = g.with_moves(moved, &diff);
      UnitDiskGraph fresh(moved, dep.radio_range, dep.field);
      EXPECT_TRUE(same_adjacency(patched, fresh))
          << "seed " << seed << " subset " << subset;
      EXPECT_EQ(patched.edge_count(), fresh.edge_count());
      for (NodeId u = 0; u < patched.size(); ++u) {
        ASSERT_EQ(patched.position(u), moved[u]);
      }
      std::size_t moved_count = 0;
      for (NodeId u = 0; u < g.size(); ++u) {
        if (!(moved[u] == dep.positions[u])) ++moved_count;
      }
      EXPECT_EQ(diff.moved_nodes, moved_count);

      // The diff is exactly the symmetric difference of the edge sets.
      std::size_t common = 0;
      for (NodeId u = 0; u < g.size(); ++u) {
        for (NodeId v : g.neighbors(u)) {
          if (v > u && patched.are_neighbors(u, v)) ++common;
        }
      }
      EXPECT_EQ(diff.removed.size(), g.edge_count() - common);
      EXPECT_EQ(diff.added.size(), patched.edge_count() - common);
      for (auto [u, v] : diff.added) {
        EXPECT_LT(u, v);
        EXPECT_TRUE(patched.are_neighbors(u, v));
        EXPECT_FALSE(g.are_neighbors(u, v));
      }
      for (auto [u, v] : diff.removed) {
        EXPECT_LT(u, v);
        EXPECT_TRUE(g.are_neighbors(u, v));
        EXPECT_FALSE(patched.are_neighbors(u, v));
      }
    }
  }
}

/// Dead nodes move with everyone else but stay edgeless, and the patched
/// graph matches a fresh build with the same aliveness mask — on both the
/// cutover and the patch branch.
TEST(UnitDiskMoves, AlivenessCarriesOver) {
  for (bool subset : {false, true}) {
    Deployment dep = draw(300, 11);
    UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
    std::vector<NodeId> failed;
    for (NodeId u = 20; u < 60; u += 3) failed.push_back(u);
    UnitDiskGraph degraded = g.with_failures(failed);

    Rng rng(0xbeef);
    std::vector<Vec2> moved =
        subset ? jitter_subset(dep.positions, dep.field, 20.0, rng)
               : jitter_positions(dep.positions, dep.field, 20.0, rng);
    UnitDiskGraph patched = degraded.with_moves(moved);
    std::vector<bool> alive(dep.positions.size(), true);
    for (NodeId u : failed) alive[u] = false;
    UnitDiskGraph fresh(moved, dep.radio_range, dep.field, alive);
    EXPECT_TRUE(same_adjacency(patched, fresh)) << "subset " << subset;
    for (NodeId u : failed) {
      EXPECT_FALSE(patched.alive(u));
      EXPECT_EQ(patched.degree(u), 0u);
    }
  }
}

/// A no-op move (identical positions) is an identity: no diff, identical
/// adjacency, and the relocated grid still answers queries.
TEST(UnitDiskMoves, NoMovesIsIdentity) {
  Deployment dep = draw(250, 5);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  EdgeDiff diff;
  UnitDiskGraph same = g.with_moves(dep.positions, &diff);
  EXPECT_TRUE(same_adjacency(g, same));
  EXPECT_TRUE(diff.added.empty());
  EXPECT_TRUE(diff.removed.empty());
}

/// Successive with_moves epochs driven by the random-waypoint process keep
/// matching from-scratch builds — the re-pin regime StreamSim runs.
TEST(UnitDiskMoves, WaypointEpochsStayBitIdentical) {
  Deployment dep = draw(300, 77);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  WaypointConfig wc;
  wc.field = dep.field;
  WaypointModel model(dep.positions, wc, Rng(0x77));
  for (int epoch = 0; epoch < 4; ++epoch) {
    model.advance(15.0);
    g = g.with_moves(model.positions());
    UnitDiskGraph fresh(model.positions(), dep.radio_range, dep.field);
    ASSERT_TRUE(same_adjacency(g, fresh)) << "epoch " << epoch;
  }
}

/// with_moves with a build pool produces the same graph as the serial
/// path — subset motion drives the patch branch's moved-node query
/// fan-out, whole-field motion the cutover's parallel fresh build.
TEST(UnitDiskMoves, ParallelMovedQueriesAreBitIdentical) {
  for (bool subset : {false, true}) {
    Deployment dep = draw(400, 13);
    UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
    Rng rng(31);
    std::vector<Vec2> moved =
        subset ? jitter_subset(dep.positions, dep.field, 30.0, rng)
               : jitter_positions(dep.positions, dep.field, 30.0, rng);
    TaskPool pool(4);
    UnitDiskGraph serial = g.with_moves(moved);
    UnitDiskGraph parallel = g.with_moves(moved, nullptr, &pool);
    EXPECT_TRUE(same_adjacency(serial, parallel)) << "subset " << subset;
  }
}

}  // namespace
}  // namespace spr
