#include "graph/spatial_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "deploy/deployment.h"
#include "graph/unit_disk.h"

namespace spr {
namespace {

std::vector<NodeId> sorted(std::vector<NodeId> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

Deployment random_deployment(int nodes, std::uint64_t seed, DeployModel model) {
  DeploymentConfig config;
  config.node_count = nodes;
  config.model = model;
  Rng rng(seed);
  return deploy(config, rng);
}

TEST(SpatialGrid, QueryRadiusMatchesBruteForce) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (DeployModel model :
         {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
      Deployment d = random_deployment(300, seed, model);
      SpatialGrid grid(d.positions, d.field, d.radio_range);
      Rng rng(seed ^ 0xabc);
      for (double radius : {5.0, d.radio_range, 55.0}) {
        for (int trial = 0; trial < 20; ++trial) {
          NodeId center_id =
              static_cast<NodeId>(rng.next_below(d.positions.size()));
          Vec2 center = d.positions[center_id];
          std::vector<NodeId> fast;
          grid.query_radius(center, radius, center_id, fast);
          std::vector<NodeId> brute;
          for (NodeId v = 0; v < d.positions.size(); ++v) {
            if (v == center_id) continue;
            if (distance(d.positions[v], center) <= radius) brute.push_back(v);
          }
          EXPECT_EQ(sorted(fast), sorted(brute))
              << "seed " << seed << " radius " << radius;
        }
      }
    }
  }
}

TEST(SpatialGrid, QueryRadiusKeepsEverythingWithInvalidExclude) {
  Deployment d = random_deployment(200, 5, DeployModel::kIdeal);
  SpatialGrid grid(d.positions, d.field, d.radio_range);
  Vec2 center = d.positions[0];
  std::vector<NodeId> with_self;
  grid.query_radius(center, 10.0, kInvalidNode, with_self);
  EXPECT_TRUE(std::find(with_self.begin(), with_self.end(), NodeId{0}) !=
              with_self.end());
}

TEST(SpatialGrid, QueryRectMatchesBruteForce) {
  for (std::uint64_t seed : {7ull, 8ull}) {
    Deployment d = random_deployment(300, seed, DeployModel::kForbiddenAreas);
    SpatialGrid grid(d.positions, d.field, d.radio_range);
    Rng rng(seed ^ 0x5a);
    for (int trial = 0; trial < 25; ++trial) {
      Vec2 a{d.field.lo().x + rng.next_double() * d.field.width(),
             d.field.lo().y + rng.next_double() * d.field.height()};
      Vec2 b{d.field.lo().x + rng.next_double() * d.field.width(),
             d.field.lo().y + rng.next_double() * d.field.height()};
      Rect query = Rect::from_bounds({std::min(a.x, b.x), std::min(a.y, b.y)},
                                     {std::max(a.x, b.x), std::max(a.y, b.y)});
      std::vector<NodeId> fast;
      grid.query_rect(query, fast);
      std::vector<NodeId> brute;
      for (NodeId v = 0; v < d.positions.size(); ++v) {
        if (query.contains(d.positions[v])) brute.push_back(v);
      }
      EXPECT_EQ(sorted(fast), sorted(brute)) << "seed " << seed;
    }
  }
}

/// A cell far below the field's scale (a tiny radio range) must not size
/// the table by field / cell: at 0.1 m that is 4e6 cells for 50 points, and
/// at 1e-300 the count overflows an int. The table stays within the
/// constructor's 4n + 1024 bound and queries stay exact.
TEST(SpatialGrid, TinyCellsKeepTheTableBoundedAndQueriesExact) {
  Deployment d = random_deployment(50, 9, DeployModel::kIdeal);
  for (double cell : {0.1, 1e-300}) {
    SpatialGrid grid(d.positions, d.field, cell);
    EXPECT_LE(static_cast<std::size_t>(grid.cols()) *
                  static_cast<std::size_t>(grid.rows()),
              4u * 50u + 1024u)
        << "cell " << cell;
    for (NodeId center_id = 0; center_id < d.positions.size(); ++center_id) {
      const Vec2 center = d.positions[center_id];
      std::vector<NodeId> fast;
      grid.query_radius(center, d.radio_range, center_id, fast);
      std::vector<NodeId> brute;
      for (NodeId v = 0; v < d.positions.size(); ++v) {
        if (v != center_id &&
            distance(d.positions[v], center) <= d.radio_range) {
          brute.push_back(v);
        }
      }
      EXPECT_EQ(sorted(fast), sorted(brute)) << "cell " << cell;
    }
    std::vector<NodeId> all;
    grid.query_rect(d.field, all);
    EXPECT_EQ(all.size(), d.positions.size()) << "cell " << cell;
  }
}

/// A coordinate far outside the field clamps to a border cell in `double`,
/// before the cast to a cell index: relocating points to x = +-1e300 and
/// querying there neither overflows the `int` index nor loses a point.
TEST(SpatialGrid, FarOutsideCoordinatesClampToBorderCells) {
  Deployment d = random_deployment(100, 4, DeployModel::kIdeal);
  SpatialGrid grid(d.positions, d.field, d.radio_range);
  const std::vector<NodeId> ids = {3, 7};
  std::vector<Vec2> moved = d.positions;
  moved[3].x = 1e300;
  moved[7].x = -1e300;
  grid.relocate(ids, d.positions, moved);
  for (const NodeId id : ids) {
    std::vector<NodeId> out;
    grid.query_radius(moved[id], 1.0, kInvalidNode, out);
    EXPECT_EQ(out, std::vector<NodeId>{id}) << "x = " << moved[id].x;
  }
  std::vector<NodeId> all;
  grid.query_rect(Rect::from_bounds({-1e300, d.field.lo().y},
                                    {1e300, d.field.hi().y}),
                  all);
  EXPECT_EQ(all.size(), d.positions.size());
}

TEST(SpatialGrid, OwnsItsPointCopy) {
  std::vector<Vec2> points = {{1.0, 1.0}, {5.0, 5.0}};
  Rect bounds = Rect::from_bounds({0.0, 0.0}, {10.0, 10.0});
  SpatialGrid grid(points, bounds, 5.0);
  points.clear();  // the grid must not dangle
  std::vector<NodeId> out;
  grid.query_radius({1.0, 1.0}, 1.0, kInvalidNode, out);
  EXPECT_EQ(out, std::vector<NodeId>{0});
  EXPECT_EQ(grid.point_count(), 2u);
}

TEST(UnitDiskGraph, WithFailuresSharesGrid) {
  Deployment d = random_deployment(250, 11, DeployModel::kIdeal);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  UnitDiskGraph degraded = g.with_failures({3, 4, 5});
  EXPECT_EQ(&g.grid(), &degraded.grid());
  // And the chain keeps sharing.
  UnitDiskGraph twice = degraded.with_failures({9});
  EXPECT_EQ(&g.grid(), &twice.grid());
}

/// with_failures patches the parent's rows instead of re-running radius
/// queries; every wave must still produce exactly the graph, and the
/// quadrant view, of a fresh build with the same aliveness. Three chained
/// waves on IA and FA, with the zones built before the first so each wave
/// patches them forward; the later waves repeat ids and name already-dead
/// and out-of-range nodes, which must be harmless.
TEST(UnitDiskGraph, WithFailuresMatchesFreshBuild) {
  const std::vector<std::vector<NodeId>> waves = {
      {1, 17, 42, 99, 200},
      {17, 5, 5, 250, 123, 7},
      {0, 249, 42, 100000, 66, 67, 66}};
  for (const DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    Deployment d = random_deployment(250, 12, model);
    UnitDiskGraph chain(d.positions, d.radio_range, d.field);
    chain.zones();
    std::vector<bool> alive(d.positions.size(), true);
    for (std::size_t w = 0; w < waves.size(); ++w) {
      chain = chain.with_failures(waves[w]);
      for (const NodeId u : waves[w]) {
        if (u < alive.size()) alive[u] = false;
      }
      UnitDiskGraph fresh(d.positions, d.radio_range, d.field, alive);

      ASSERT_EQ(chain.size(), fresh.size());
      EXPECT_EQ(chain.edge_count(), fresh.edge_count()) << "wave " << w;
      for (NodeId u = 0; u < chain.size(); ++u) {
        EXPECT_EQ(chain.alive(u), fresh.alive(u)) << "wave " << w;
        auto a = chain.neighbors(u);
        auto b = fresh.neighbors(u);
        ASSERT_EQ(a.size(), b.size()) << "wave " << w << " node " << u;
        EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin()))
            << "wave " << w << " node " << u;
      }
      ASSERT_TRUE(chain.has_zones()) << "wave " << w << " dropped the zones";
      EXPECT_TRUE(chain.zones() == QuadrantZones::build(fresh))
          << "wave " << w << ": patched quadrant view differs from a build";
    }
  }
}

}  // namespace
}  // namespace spr
