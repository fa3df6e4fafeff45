/// \file parallel_build_test.cpp
/// Within-network build parallelism: unit-disk adjacency and the
/// safety-labeling initialization fan out over a TaskPool with node-id-
/// ordered merges, so the built structures must be bit-identical to a
/// serial build for every pool size.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/network.h"
#include "safety/labeling.h"
#include "test_helpers.h"
#include "util/task_pool.h"

namespace spr {
namespace {

void expect_same_graph(const UnitDiskGraph& a, const UnitDiskGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.edge_count(), b.edge_count());
  for (NodeId u = 0; u < a.size(); ++u) {
    auto na = a.neighbors(u);
    auto nb = b.neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << "node " << u;
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i], nb[i]) << "node " << u;
    }
  }
}

TEST(ParallelBuild, AdjacencyIdenticalAcrossPoolSizes) {
  // 600 nodes clears the parallel grain threshold (2 * 256).
  Deployment d = test::dense_grid_deployment(600, 5);
  UnitDiskGraph serial(d.positions, d.radio_range, d.field);
  for (int threads : {2, 3, 7}) {
    TaskPool pool(threads);
    UnitDiskGraph parallel(d.positions, d.radio_range, d.field, &pool);
    expect_same_graph(serial, parallel);
  }
}

/// A uniform field of `n` nodes at the paper's density (600 per 200 m x
/// 200 m, 20 m range).
Deployment uniform_field(std::size_t n, std::uint64_t seed) {
  DeploymentConfig config;
  config.node_count = static_cast<int>(n);
  const double side = 200.0 * std::sqrt(static_cast<double>(n) / 600.0);
  config.field = Rect::from_bounds({0.0, 0.0}, {side, side});
  Rng rng(seed);
  return deploy(config, rng);
}

/// `g` is the unit-disk graph of `positions` with aliveness `alive`,
/// checked pair by pair: each alive row lists, ascending, every other
/// alive node within range, and each row starts where the last one ended.
void expect_brute_force_rows(const UnitDiskGraph& g,
                             const std::vector<Vec2>& positions,
                             const std::vector<bool>& alive,
                             const std::string& where) {
  ASSERT_EQ(g.size(), positions.size()) << where;
  const double range_sq = g.range() * g.range();
  std::size_t offset = 0;
  for (NodeId u = 0; u < positions.size(); ++u) {
    std::vector<NodeId> row;
    for (NodeId v = 0; alive[u] && v < positions.size(); ++v) {
      if (v != u && alive[v] &&
          distance_sq(positions[v], positions[u]) <= range_sq) {
        row.push_back(v);
      }
    }
    const auto got = g.neighbors(u);
    ASSERT_EQ(g.neighbor_offset(u), offset) << where << " node " << u;
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), row)
        << where << " node " << u;
    offset += row.size();
  }
  EXPECT_EQ(g.directed_edge_count(), offset) << where;
}

/// The block fill at the block boundaries (one block short of full, one
/// full block, one node into a second block) and across several blocks,
/// with and without dead nodes, serial and on pools of 2 and 4 threads:
/// every build equals the brute-force graph.
TEST(ParallelBuild, BlockFillMatchesBruteForce) {
  const std::size_t block = UnitDiskGraph::kBuildBlock;
  TaskPool two(2), four(4);
  for (const std::size_t n : {block - 1, block, block + 1, 4 * block + 3}) {
    const Deployment d = uniform_field(n, 40 + n);
    for (const bool with_dead : {false, true}) {
      std::vector<bool> alive(n, true);
      for (std::size_t u = 3; with_dead && u < n; u += 7) alive[u] = false;
      for (TaskPool* pool : {static_cast<TaskPool*>(nullptr), &two, &four}) {
        const std::string where =
            "n " + std::to_string(n) + (with_dead ? " with dead" : "") +
            " threads " +
            std::to_string(pool == nullptr ? 0 : pool->thread_count());
        const UnitDiskGraph g(d.positions, d.radio_range, d.field, alive,
                              pool);
        expect_brute_force_rows(g, d.positions, alive, where);
      }
    }
  }
}

/// `with_moves` below its cutover relocates a copy of the grid, so a later
/// epoch's radius queries read the coordinates `relocate` rewrote. A chain
/// of subset-motion epochs on a 4-thread pool, with dead nodes, must equal
/// a fresh build over the same positions at every epoch.
TEST(ParallelBuild, RelocatedGridMatchesFreshBuild) {
  const Deployment d = uniform_field(3 * UnitDiskGraph::kBuildBlock, 77);
  std::vector<bool> alive(d.positions.size(), true);
  for (std::size_t u = 5; u < alive.size(); u += 11) alive[u] = false;
  TaskPool pool(4);
  UnitDiskGraph g(d.positions, d.radio_range, d.field, alive, &pool);
  std::vector<Vec2> positions = d.positions;
  Rng rng(78);
  for (int epoch = 0; epoch < 4; ++epoch) {
    // A third of the nodes move, some across cells, the rest stay put.
    for (std::size_t u = static_cast<std::size_t>(epoch) % 3;
         u < positions.size(); u += 3) {
      positions[u].x = std::clamp(positions[u].x + rng.uniform(-15.0, 15.0),
                                  d.field.lo().x, d.field.hi().x);
      positions[u].y = std::clamp(positions[u].y + rng.uniform(-15.0, 15.0),
                                  d.field.lo().y, d.field.hi().y);
    }
    g = g.with_moves(positions, nullptr, &pool);
    const UnitDiskGraph fresh(positions, d.radio_range, d.field, alive);
    expect_same_graph(g, fresh);
    expect_brute_force_rows(g, positions, alive,
                            "epoch " + std::to_string(epoch));
  }
}

TEST(ParallelBuild, AdjacencyWithFailuresIdentical) {
  Deployment d = test::dense_grid_deployment(600, 6);
  UnitDiskGraph base(d.positions, d.radio_range, d.field);
  std::vector<NodeId> failed = {3, 50, 51, 52, 200, 333};
  TaskPool pool(3);
  expect_same_graph(base.with_failures(failed),
                    base.with_failures(failed, &pool));
}

TEST(ParallelBuild, SafetyLabelingIdenticalAcrossPoolSizes) {
  Deployment d = test::dense_grid_deployment(600, 7);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  InterestArea area(g, d.radio_range);
  SafetyInfo serial = compute_safety(g, area);
  for (int threads : {2, 5}) {
    TaskPool pool(threads);
    SafetyInfo parallel = compute_safety(g, area, &pool);
    EXPECT_EQ(serial, parallel);
  }
}

TEST(ParallelBuild, SafetyLabelingWithHolesIdentical) {
  // A punched-out void produces real unsafe areas, exercising the worklist
  // propagation seeded by the parallel initialization round.
  Deployment d = test::grid_with_void(
      26, 12.0, Rect::from_bounds({120.0, 120.0}, {200.0, 200.0}));
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  InterestArea area(g, d.radio_range);
  SafetyInfo serial = compute_safety(g, area);
  ASSERT_GT(serial.unsafe_node_count(), 0u);  // the fixture must have holes
  TaskPool pool(4);
  SafetyInfo parallel = compute_safety(g, area, &pool);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelBuild, NetworkWithBuildPoolRoutesIdentically) {
  NetworkConfig config;
  config.deployment.node_count = 600;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 11;
  Network serial_net = Network::create(config);

  TaskPool pool(3);
  config.build_pool = &pool;
  Network parallel_net = Network::create(config);

  expect_same_graph(serial_net.graph(), parallel_net.graph());
  EXPECT_EQ(serial_net.safety(), parallel_net.safety());

  Rng rng(13);
  auto [s, dst] = serial_net.random_connected_interior_pair(rng);
  ASSERT_NE(s, kInvalidNode);
  for (Scheme scheme : {Scheme::kGf, Scheme::kSlgf2}) {
    PathResult a = serial_net.make_router(scheme)->route(s, dst);
    PathResult b = parallel_net.make_router(scheme)->route(s, dst);
    EXPECT_EQ(a.path, b.path) << scheme_name(scheme);
    EXPECT_EQ(a.length, b.length) << scheme_name(scheme);
  }
}

}  // namespace
}  // namespace spr
