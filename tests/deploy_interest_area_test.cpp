#include "deploy/interest_area.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "geometry/hull.h"
#include "shard/sharded_network.h"
#include "test_helpers.h"

namespace spr {
namespace {

TEST(InterestArea, HullCornersAreEdgeNodes) {
  auto g = test::make_graph({{0.0, 0.0}, {100.0, 0.0}, {100.0, 100.0},
                             {0.0, 100.0}, {50.0, 50.0}}, 20.0);
  InterestArea area(g, 5.0);
  EXPECT_TRUE(area.is_edge_node(0));
  EXPECT_TRUE(area.is_edge_node(1));
  EXPECT_TRUE(area.is_edge_node(2));
  EXPECT_TRUE(area.is_edge_node(3));
  EXPECT_FALSE(area.is_edge_node(4));
}

TEST(InterestArea, BandWidensEdgeSet) {
  Deployment d = test::dense_grid_deployment(400);
  UnitDiskGraph g(d.positions, d.radio_range, d.field);
  InterestArea narrow(g, 1.0);
  InterestArea wide(g, 30.0);
  EXPECT_LT(narrow.edge_count(), wide.edge_count());
  // Widening the band can only shrink the interior.
  EXPECT_GT(narrow.interior_nodes().size(), wide.interior_nodes().size());
}

TEST(InterestArea, InteriorAndEdgePartition) {
  Network net = test::random_network(400, 21);
  const auto& area = net.interest_area();
  const auto& g = net.graph();
  std::size_t interior = area.interior_nodes().size();
  EXPECT_EQ(interior + area.edge_count(), g.size());
  for (NodeId u : area.interior_nodes()) EXPECT_FALSE(area.is_edge_node(u));
}

TEST(InterestArea, InteriorNodesAwayFromHull) {
  Network net = test::random_network(400, 22);
  const auto& area = net.interest_area();
  const auto& g = net.graph();
  for (NodeId u : area.interior_nodes()) {
    EXPECT_GT(distance_to_hull_boundary(area.hull(), g.position(u)),
              g.range());
  }
}

TEST(InterestArea, HullIsConvexAndCoversNodes) {
  Network net = test::random_network(300, 23);
  Polygon hull(net.interest_area().hull());
  for (Vec2 p : net.graph().positions()) {
    EXPECT_TRUE(hull.contains(p));
  }
}

TEST(InterestArea, DegenerateTinyNetworks) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}}, 20.0);
  InterestArea area(g, 5.0);
  // Both nodes are on the (degenerate) hull: everything is edge.
  EXPECT_EQ(area.edge_count(), 2u);
  EXPECT_TRUE(area.interior_nodes().empty());
}

void expect_same_area(const InterestArea& carried, const InterestArea& fresh,
                      std::size_t n, const std::string& where) {
  for (NodeId u = 0; u < n; ++u) {
    ASSERT_EQ(carried.is_edge_node(u), fresh.is_edge_node(u))
        << where << " node " << u;
  }
  EXPECT_EQ(carried.interior_nodes(), fresh.interior_nodes()) << where;
  EXPECT_EQ(carried.hull(), fresh.hull()) << where;
}

/// Failure siblings carry their parent's interest area instead of
/// recomputing it: the hull and edge flags read every position, dead ones
/// included, so only the interior set may change. Along a failure chain
/// whose first wave kills every hull vertex, the carried area must equal a
/// fresh classification of the sibling's graph — on the Network and the
/// ShardedNetwork paths alike — and the hull must not move.
TEST(InterestArea, FailureSiblingsCarryTheArea) {
  Network net = test::random_network(400, 31, DeployModel::kForbiddenAreas);
  ShardedNetwork tiles(net.graph(), -1.0, ShardedNetwork::Config{});
  const std::vector<Vec2> hull = net.interest_area().hull();
  std::vector<NodeId> hull_vertices;
  for (NodeId u = 0; u < net.graph().size(); ++u) {
    for (const Vec2 h : hull) {
      if (net.graph().position(u) == h) {
        hull_vertices.push_back(u);
        break;
      }
    }
  }
  ASSERT_GE(hull_vertices.size(), 3u);
  const std::vector<std::vector<NodeId>> waves = {
      hull_vertices, {net.interest_area().interior_nodes()[0], 40, 41, 42},
      {40, 77, 201, 399}};
  for (std::size_t w = 0; w < waves.size(); ++w) {
    const std::string where = "wave " + std::to_string(w);
    net = net.with_failures(waves[w]);
    expect_same_area(net.interest_area(),
                     InterestArea(net.graph(), net.edge_band()),
                     net.graph().size(), "network " + where);
    EXPECT_EQ(net.interest_area().hull(), hull) << where;

    tiles.apply_failures(waves[w]);
    expect_same_area(tiles.area(), InterestArea(tiles.graph(), tiles.edge_band()),
                     tiles.graph().size(), "tiles " + where);
    EXPECT_EQ(tiles.area().hull(), hull) << where;
  }
}

}  // namespace
}  // namespace spr
