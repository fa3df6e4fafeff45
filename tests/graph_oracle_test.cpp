/// \file graph_oracle_test.cpp
/// The stretch oracles: ShortestPathTree against brute-force single-pair
/// searches, OracleBatch's point-to-point searches against the trees (the
/// PointOracle exactness corpus), and the search counters the sweep cells
/// are asserted with.

#include "graph/graph_algos.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "deploy/rng.h"
#include "test_helpers.h"
#include "util/task_pool.h"

namespace spr {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Heap-free O(n^2) Dijkstra distances — an implementation independent of
/// the tree under test.
std::vector<double> brute_force_distances(const UnitDiskGraph& g,
                                          NodeId source) {
  std::vector<double> dist(g.size(), kInf);
  std::vector<bool> done(g.size(), false);
  dist[source] = 0.0;
  for (std::size_t round = 0; round < g.size(); ++round) {
    NodeId u = kInvalidNode;
    for (NodeId v = 0; v < g.size(); ++v) {
      if (!done[v] && dist[v] < kInf &&
          (u == kInvalidNode || dist[v] < dist[u])) {
        u = v;
      }
    }
    if (u == kInvalidNode) break;
    done[u] = true;
    for (NodeId v : g.neighbors(u)) {
      double nd = dist[u] + distance(g.position(u), g.position(v));
      if (nd < dist[v]) dist[v] = nd;
    }
  }
  return dist;
}

/// A path must walk existing edges from s to d and report its own length.
void expect_valid_path(const UnitDiskGraph& g, const ShortestPath& sp,
                       NodeId s, NodeId d) {
  ASSERT_FALSE(sp.path.empty());
  EXPECT_EQ(sp.path.front(), s);
  EXPECT_EQ(sp.path.back(), d);
  double length = 0.0;
  for (std::size_t i = 1; i < sp.path.size(); ++i) {
    EXPECT_TRUE(g.are_neighbors(sp.path[i - 1], sp.path[i]));
    length += distance(g.position(sp.path[i - 1]), g.position(sp.path[i]));
  }
  EXPECT_DOUBLE_EQ(sp.length, length);
}

UnitDiskGraph holey_graph(std::uint64_t seed) {
  Deployment d = test::dense_grid_deployment(200, seed);
  return UnitDiskGraph(d.positions, d.radio_range, d.field);
}

TEST(ShortestPathTree, BfsMatchesBruteForceHops) {
  for (std::uint64_t seed : test::property_seeds()) {
    UnitDiskGraph g = holey_graph(seed);
    NodeId source = static_cast<NodeId>(seed % g.size());
    ShortestPathTree tree(g, source, ShortestPathTree::Metric::kHops);
    auto hops = bfs_hops(g, source);  // independent implementation
    for (NodeId t = 0; t < g.size(); ++t) {
      ShortestPath sp = tree.extract(t);
      if (hops[t] == std::numeric_limits<std::size_t>::max()) {
        EXPECT_TRUE(sp.path.empty());
        EXPECT_FALSE(tree.reached(t));
        continue;
      }
      EXPECT_EQ(sp.hops(), hops[t]) << "target " << t;
      expect_valid_path(g, sp, source, t);
    }
  }
}

TEST(ShortestPathTree, DijkstraMatchesBruteForceDistances) {
  for (std::uint64_t seed : test::property_seeds()) {
    UnitDiskGraph g = holey_graph(seed);
    NodeId source = static_cast<NodeId>((seed * 7) % g.size());
    ShortestPathTree tree(g, source, ShortestPathTree::Metric::kLength);
    auto dist = brute_force_distances(g, source);
    for (NodeId t = 0; t < g.size(); ++t) {
      ShortestPath sp = tree.extract(t);
      if (dist[t] == kInf) {
        EXPECT_TRUE(sp.path.empty());
        continue;
      }
      EXPECT_NEAR(sp.length, dist[t], 1e-9) << "target " << t;
      expect_valid_path(g, sp, source, t);
    }
  }
}

TEST(ShortestPathTree, ExtractIdenticalToPerPairWrappers) {
  UnitDiskGraph g = holey_graph(3);
  NodeId source = 5;
  ShortestPathTree hop_tree(g, source, ShortestPathTree::Metric::kHops);
  ShortestPathTree len_tree(g, source, ShortestPathTree::Metric::kLength);
  for (NodeId t = 0; t < g.size(); ++t) {
    ShortestPath hop = hop_tree.extract(t);
    ShortestPath len = len_tree.extract(t);
    ShortestPath hop_pp = bfs_path(g, source, t);
    ShortestPath len_pp = dijkstra_path(g, source, t);
    EXPECT_EQ(hop.path, hop_pp.path);
    EXPECT_EQ(hop.length, hop_pp.length);  // bitwise: same summation order
    EXPECT_EQ(len.path, len_pp.path);
    EXPECT_EQ(len.length, len_pp.length);
  }
}

TEST(OracleBatch, EquivalentToPerPairSearches) {
  UnitDiskGraph g = holey_graph(11);
  Rng rng(99);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 40; ++i) {
    NodeId s = static_cast<NodeId>(rng.next_below(g.size()));
    NodeId d = static_cast<NodeId>(rng.next_below(g.size()));
    pairs.emplace_back(s, d);
  }
  // Force shared sources, a repeated pair, and a self-pair.
  pairs.emplace_back(pairs[0].first, pairs[1].second);
  pairs.push_back(pairs[2]);
  pairs.emplace_back(pairs[3].first, pairs[3].first);

  OracleBatch batch(g, pairs);
  ASSERT_EQ(batch.size(), pairs.size());
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, d] = pairs[i];
    ShortestPath hop = bfs_path(g, s, d);
    ShortestPath len = dijkstra_path(g, s, d);
    ASSERT_FALSE(hop.path.empty()) << "pair " << i;
    EXPECT_EQ(batch.hop_optimal(i).hops(), hop.hops()) << "pair " << i;
    EXPECT_EQ(batch.length_optimal(i).length, len.length) << "pair " << i;
    expect_valid_path(g, batch.hop_optimal(i), s, d);
    expect_valid_path(g, batch.length_optimal(i), s, d);
  }
}

TEST(OracleBatch, OneSearchPerPairPerMetric) {
  UnitDiskGraph g = holey_graph(13);
  std::vector<std::pair<NodeId, NodeId>> pairs = {
      {0, 10}, {0, 20}, {0, 30}, {1, 10}, {2, 10}, {1, 40}};
  for (auto [s, d] : pairs) ASSERT_TRUE(connected(g, s, d));
  reset_oracle_search_counts();
  OracleBatch both(g, pairs);
  auto counts = oracle_search_counts();
  EXPECT_EQ(counts.bfs_trees, 6u);
  EXPECT_EQ(counts.dijkstra_trees, 6u);

  reset_oracle_search_counts();
  OracleBatch hops(g, pairs, nullptr, OracleBatch::Metrics::kHopsOnly);
  counts = oracle_search_counts();
  EXPECT_EQ(counts.bfs_trees, 6u);
  EXPECT_EQ(counts.dijkstra_trees, 0u);

  // An out-of-range endpoint runs no search at all.
  reset_oracle_search_counts();
  std::vector<std::pair<NodeId, NodeId>> invalid = {{kInvalidNode, 0},
                                                    {0, kInvalidNode}};
  OracleBatch none(g, invalid);
  counts = oracle_search_counts();
  EXPECT_EQ(counts.bfs_trees, 0u);
  EXPECT_EQ(counts.dijkstra_trees, 0u);
}

TEST(OracleBatch, InvalidPairsYieldEmptyOptima) {
  UnitDiskGraph g = holey_graph(23);
  std::vector<std::pair<NodeId, NodeId>> pairs = {
      {kInvalidNode, 0}, {0, kInvalidNode}, {0, 5}};
  OracleBatch batch(g, pairs);
  EXPECT_TRUE(batch.hop_optimal(0).path.empty());
  EXPECT_TRUE(batch.length_optimal(0).path.empty());
  EXPECT_TRUE(batch.hop_optimal(1).path.empty());
  EXPECT_FALSE(batch.hop_optimal(2).path.empty());
  // The per-pair wrappers degrade the same way.
  EXPECT_TRUE(bfs_path(g, kInvalidNode, 0).path.empty());
  EXPECT_TRUE(dijkstra_path(g, 0, kInvalidNode).path.empty());
}

TEST(OracleBatch, ConnectedRejectsOutOfRangeIds) {
  UnitDiskGraph g = test::make_graph({{0, 0}, {10, 0}, {20, 0}});
  EXPECT_TRUE(connected(g, 0, 2));
  EXPECT_FALSE(connected(g, 0, 7));
  EXPECT_FALSE(connected(g, 9, 0));
  EXPECT_FALSE(connected(g, 9, 9));
  EXPECT_FALSE(connected(g, kInvalidNode, kInvalidNode));
}

TEST(OracleBatch, BfsHopsFromOutOfRangeSourceReachesNothing) {
  UnitDiskGraph g = test::make_graph({{0, 0}, {10, 0}, {20, 0}});
  for (NodeId source : {NodeId{3}, NodeId{9}, kInvalidNode}) {
    auto hops = bfs_hops(g, source);
    ASSERT_EQ(hops.size(), g.size());
    for (std::size_t h : hops) {
      EXPECT_EQ(h, std::numeric_limits<std::size_t>::max());
    }
  }
}

TEST(OracleBatch, EmptySpan) {
  UnitDiskGraph g = holey_graph(17);
  OracleBatch batch(g, {});
  EXPECT_EQ(batch.size(), 0u);
}

TEST(OracleSearchCounts, WrappersCountOneTreeEach) {
  UnitDiskGraph g = holey_graph(19);
  reset_oracle_search_counts();
  bfs_path(g, 0, 1);
  bfs_path(g, 0, 2);
  dijkstra_path(g, 0, 1);
  auto counts = oracle_search_counts();
  EXPECT_EQ(counts.bfs_trees, 2u);
  EXPECT_EQ(counts.dijkstra_trees, 1u);
  // bfs_hops and connectivity checks are not tree searches.
  bfs_hops(g, 0);
  connected(g, 0, 1);
  counts = oracle_search_counts();
  EXPECT_EQ(counts.bfs_trees, 2u);
}

// ---------------------------------------------------------------------------
// PointOracle: the exactness corpus. Every shape is one where a textbook A*
// (stop when the target is popped) or a hop search with a loose stopping
// rule could drift from the reference trees: lattices and collinear lines
// with many exact ties whose floating-point sums differ by an ulp, far-off
// coordinates, zero-length edges, the sweep's own networks, and the
// degenerate ids.

/// Lengths compare by bytes: the oracle promises the same `double`.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

/// Checks OracleBatch (kBoth and kHopsOnly, serial and pooled) against
/// bfs_path / dijkstra_path on every pair, pooled against serial, and
/// `connected` against a full `bfs_hops` labelling. Stops at the first
/// failing pair so a regression reports one case, not thousands.
void expect_point_oracle_exact(const UnitDiskGraph& g,
                               std::span<const std::pair<NodeId, NodeId>> pairs,
                               TaskPool& pool) {
  using Metrics = OracleBatch::Metrics;
  const OracleBatch both(g, pairs, nullptr);
  const OracleBatch both_pooled(g, pairs, nullptr, Metrics::kBoth, &pool);
  const OracleBatch hops(g, pairs, nullptr, Metrics::kHopsOnly);
  const OracleBatch hops_pooled(g, pairs, nullptr, Metrics::kHopsOnly, &pool);
  for (const OracleBatch* batch : {&both, &both_pooled, &hops, &hops_pooled}) {
    ASSERT_EQ(batch->size(), pairs.size());
  }
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    SCOPED_TRACE(testing::Message() << "pair " << i << " (" << s << ", " << t
                                    << ")");
    const ShortestPath ref_hop = bfs_path(g, s, t);
    const ShortestPath ref_len = dijkstra_path(g, s, t);
    for (const OracleBatch* batch : {&both, &both_pooled, &hops, &hops_pooled}) {
      const ShortestPath& hop = batch->hop_optimal(i);
      EXPECT_EQ(hop.path.empty(), ref_hop.path.empty());
      EXPECT_EQ(hop.hops(), ref_hop.hops());
      if (!hop.path.empty()) expect_valid_path(g, hop, s, t);
    }
    for (const OracleBatch* batch : {&both, &both_pooled}) {
      const ShortestPath& len = batch->length_optimal(i);
      EXPECT_EQ(len.path.empty(), ref_len.path.empty());
      EXPECT_TRUE(same_bits(len.length, ref_len.length))
          << len.length << " vs reference " << ref_len.length;
      if (!len.path.empty()) expect_valid_path(g, len, s, t);
    }
    EXPECT_EQ(both_pooled.hop_optimal(i).path, both.hop_optimal(i).path);
    EXPECT_EQ(both_pooled.length_optimal(i).path, both.length_optimal(i).path);
    EXPECT_TRUE(same_bits(both_pooled.length_optimal(i).length,
                          both.length_optimal(i).length));
    EXPECT_EQ(hops_pooled.hop_optimal(i).path, hops.hop_optimal(i).path);
    const bool reachable = s < g.size() && t < g.size() &&
                           bfs_hops(g, s)[t] !=
                               std::numeric_limits<std::size_t>::max();
    EXPECT_EQ(connected(g, s, t), reachable);
    if (testing::Test::HasFailure()) return;
  }
}

/// `count` seeded uniform pairs over every id (self-pairs included), plus
/// the two far ends of the id range both ways.
std::vector<std::pair<NodeId, NodeId>> random_pairs(const UnitDiskGraph& g,
                                                    int count,
                                                    std::uint64_t seed) {
  Rng rng(seed);
  const NodeId last = static_cast<NodeId>(g.size() - 1);
  std::vector<std::pair<NodeId, NodeId>> pairs = {{0, last}, {last, 0}};
  for (int i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.next_below(g.size())),
                       static_cast<NodeId>(rng.next_below(g.size())));
  }
  return pairs;
}

/// A per_side x per_side square lattice at `spacing`, shifted by `offset`.
std::vector<Vec2> lattice(int per_side, double spacing, double offset = 0.0) {
  std::vector<Vec2> positions;
  for (int row = 0; row < per_side; ++row) {
    for (int col = 0; col < per_side; ++col) {
      positions.push_back({offset + col * spacing, offset + row * spacing});
    }
  }
  return positions;
}

/// 400 collinear nodes at (dx * i, dy * i).
std::vector<Vec2> line(double dx, double dy) {
  std::vector<Vec2> positions;
  for (int i = 0; i < 400; ++i) positions.push_back({dx * i, dy * i});
  return positions;
}

TEST(PointOracle, Lattices) {
  TaskPool pool(4);
  for (double spacing : {20.0, 10.0, 7.0, 20.0 / 3.0, 5.0}) {
    SCOPED_TRACE(testing::Message() << "spacing " << spacing);
    UnitDiskGraph g = test::make_graph(lattice(20, spacing));
    expect_point_oracle_exact(g, random_pairs(g, 300, 41), pool);
  }
}

TEST(PointOracle, LatticeFarFromTheOrigin) {
  TaskPool pool(4);
  // Tight bounds: make_graph's field would span the whole 1e5 offset.
  const Rect field = Rect::from_bounds({1e5 - 20.0, 1e5 - 20.0},
                                       {1e5 + 120.0, 1e5 + 120.0});
  UnitDiskGraph g(lattice(20, 5.0, 1e5), 20.0, field);
  expect_point_oracle_exact(g, random_pairs(g, 300, 43), pool);
}

TEST(PointOracle, EveryNodeDuplicated) {
  TaskPool pool(4);
  std::vector<Vec2> positions = lattice(14, 7.0);
  const std::size_t n = positions.size();
  for (std::size_t i = 0; i < n; ++i) positions.push_back(positions[i]);
  UnitDiskGraph g = test::make_graph(std::move(positions));
  std::vector<std::pair<NodeId, NodeId>> pairs = random_pairs(g, 300, 47);
  // Twins: zero-length optima with s != t.
  for (NodeId u = 0; u < 10; ++u) {
    pairs.emplace_back(u, static_cast<NodeId>(u + n));
  }
  expect_point_oracle_exact(g, pairs, pool);
}

TEST(PointOracle, CollinearAxis) {
  TaskPool pool(4);
  UnitDiskGraph g = test::make_graph(line(0.1, 0.0));
  expect_point_oracle_exact(g, random_pairs(g, 150, 53), pool);
}

TEST(PointOracle, CollinearDiagonal) {
  TaskPool pool(4);
  UnitDiskGraph g = test::make_graph(line(0.1, 0.3));
  expect_point_oracle_exact(g, random_pairs(g, 300, 59), pool);
}

TEST(PointOracle, EverySweepCellOfASmallGrid) {
  TaskPool pool(4);
  for (DeployModel model : {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    SweepConfig config;
    config.model = model;
    config.node_counts = {400, 600};
    config.networks_per_point = 2;
    config.pairs_per_network = 20;
    for (int n : config.node_counts) {
      for (int net_index = 0; net_index < config.networks_per_point;
           ++net_index) {
        SCOPED_TRACE(testing::Message() << "model " << static_cast<int>(model)
                                        << " cell " << n << "/" << net_index);
        NetworkConfig nc;
        nc.deployment = config.deployment_template;
        nc.deployment.model = model;
        nc.deployment.node_count = n;
        nc.seed = sweep_cell_seed(config, n, net_index);
        Network network = Network::create(nc);
        auto pairs = sweep_cell_pairs(config, network, n, net_index);
        ASSERT_FALSE(pairs.empty());
        expect_point_oracle_exact(network.graph(), pairs, pool);
      }
    }
  }
}

TEST(PointOracle, DeadNodesSelfPairsInvalidIdsAndIslands) {
  TaskPool pool(4);
  // Two 8x8 lattices 500 m apart: every cross pair is disconnected.
  std::vector<Vec2> positions = lattice(8, 10.0);
  for (Vec2 p : lattice(8, 10.0)) positions.push_back({p.x + 500.0, p.y});
  std::vector<bool> alive(positions.size(), true);
  for (std::size_t u = 3; u < alive.size(); u += 7) alive[u] = false;
  Rect bounds = Rect::from_bounds({-20.0, -20.0}, {600.0, 100.0});
  UnitDiskGraph g(positions, 20.0, bounds, alive);
  const NodeId size = static_cast<NodeId>(g.size());
  const std::vector<NodeId> ids = {0, 1, 3, 10, 17, 63, 64, 66, 100, 127,
                                   size, size + 5, kInvalidNode};
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId s : ids) {
    for (NodeId t : ids) pairs.emplace_back(s, t);
  }
  expect_point_oracle_exact(g, pairs, pool);
}

}  // namespace
}  // namespace spr
