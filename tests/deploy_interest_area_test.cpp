#include "deploy/interest_area.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "geometry/hull.h"
#include "shard/sharded_network.h"
#include "test_helpers.h"
#include "util/check.h"

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

/// The classification the certificate must reproduce: the per-node scan
/// of every node against every edge of the area's hull.
void expect_matches_scan(const std::vector<Vec2>& positions, double band,
                         const std::string& where) {
  const UnitDiskGraph g = test::make_graph(positions);
  const InterestArea area(g, band);
  std::vector<NodeId> interior;
  for (NodeId u = 0; u < g.size(); ++u) {
    const bool edge =
        distance_to_hull_boundary(area.hull(), g.position(u)) <= band;
    ASSERT_EQ(area.is_edge_node(u), edge)
        << where << " node " << u << " at " << g.position(u);
    if (!edge) interior.push_back(u);
  }
  EXPECT_EQ(area.interior_nodes(), interior) << where;
}

/// A square hull with nodes exactly `band` inside each edge and one ulp to
/// either side, for bands with and without an exact binary value.
TEST(InterestArea, CertificateMatchesScanAtTheBand) {
  for (const double band : {10.0, 0.1, 1.0 / 3.0}) {
    std::vector<Vec2> pts = {{0.0, 0.0}, {100.0, 0.0}, {100.0, 100.0},
                             {0.0, 100.0}};
    for (const double at : {band, 100.0 - band}) {
      for (const double d : {std::nextafter(at, -1.0), at,
                             std::nextafter(at, 200.0)}) {
        pts.push_back({d, 50.0});
        pts.push_back({50.0, d});
      }
    }
    expect_matches_scan(pts, band, "band " + std::to_string(band));
  }
}

/// Lattices at spacing = band put a whole ring of nodes exactly one band
/// from the hull; collinear boundary points are dropped from the hull but
/// classified like any node.
TEST(InterestArea, CertificateMatchesScanOnLatticesAndCollinearHulls) {
  for (const double spacing : {25.0, 0.7, 1.0 / 3.0}) {
    std::vector<Vec2> lattice;
    for (int i = 0; i <= 20; ++i) {
      for (int j = 0; j <= 20; ++j) {
        lattice.push_back({i * spacing, j * spacing});
      }
    }
    expect_matches_scan(lattice, spacing,
                        "lattice " + std::to_string(spacing));
  }
  Rng rng(5);
  std::vector<Vec2> perimeter;
  for (int k = 0; k <= 10; ++k) {
    const double t = 10.0 * k;
    perimeter.insert(perimeter.end(), {{t, 0.0},
                                       {100.0, t},
                                       {100.0 - t, 100.0},
                                       {0.0, 100.0 - t}});
  }
  for (int k = 0; k < 200; ++k) {
    perimeter.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  for (const double band : {0.0, 5.0, 30.0}) {
    expect_matches_scan(perimeter, band, "perimeter " + std::to_string(band));
  }
}

/// Hulls of fewer than three vertices take the scan for every node.
TEST(InterestArea, CertificateMatchesScanOnDegenerateHulls) {
  std::vector<Vec2> line;
  for (int k = 0; k < 50; ++k) line.push_back({0.3 * k, 0.7 * k});
  for (const double band : {0.0, 5.0}) {
    expect_matches_scan({{4.0, 4.0}}, band, "one point");
    expect_matches_scan({{4.0, 4.0}, {9.0, 1.0}}, band, "two points");
    expect_matches_scan({{4.0, 4.0}, {4.0, 4.0}, {4.0, 4.0}}, band,
                        "one point thrice");
    expect_matches_scan(line, band, "collinear");
  }
}

/// Far-off coordinates widen the rounding margin with their magnitude, and
/// bands of 0, 1e-300 and a node's exact boundary distance sit right at
/// the certificate's threshold.
TEST(InterestArea, CertificateMatchesScanAtLargeOffsetsAndTinyBands) {
  const Deployment d = test::dense_grid_deployment(600, 9);
  for (const Vec2 offset :
       {Vec2{0.0, 0.0}, Vec2{1e6, 1e6}, Vec2{1e9, -1e9}, Vec2{-1e9, 3e9}}) {
    std::vector<Vec2> pts;
    for (const Vec2 p : d.positions) pts.push_back(p + offset);
    const std::vector<Vec2> hull = convex_hull(pts);
    std::vector<double> bands = {0.0, 1e-300, d.radio_range};
    // Exact boundary distances of nodes in a strip near the hull.
    for (const Vec2 p : pts) {
      const double dist = distance_to_hull_boundary(hull, p);
      if (dist > 0.0 && dist < 2.0 * d.radio_range && bands.size() < 40) {
        bands.push_back(dist);
      }
    }
    for (const double band : bands) {
      expect_matches_scan(pts, band,
                          "offset " + std::to_string(offset.x) + " band " +
                              std::to_string(band));
    }
  }
}

/// The band must be a finite, non-negative distance: NaN used to make every
/// node interior (hull vertices included) and +inf every node an edge.
/// Both facades build an area, so both reject such a band; a negative one
/// still means one radio range there.
TEST(InterestArea, RejectsABandThatIsNotAFiniteDistance) {
  ScopedCheckHandler guard(throwing_check_handler);
  const Deployment d = test::dense_grid_deployment(200);
  const UnitDiskGraph g(d.positions, d.radio_range, d.field);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double band : {nan, inf, -inf, -1.0}) {
    EXPECT_THROW(InterestArea(g, band), CheckError) << band;
  }
  for (const double band : {nan, inf}) {
    EXPECT_THROW(Network(d, band), CheckError) << band;
    NetworkConfig config;
    config.deployment.node_count = 200;
    config.edge_band = band;
    EXPECT_THROW(Network::create(config), CheckError) << band;
    EXPECT_THROW(ShardedNetwork(g, band, ShardedNetwork::Config{}), CheckError)
        << band;
  }
  const InterestArea one_range(g, d.radio_range);
  const Network net(d, -5.0);
  const ShardedNetwork tiles(g, -inf, ShardedNetwork::Config{});
  EXPECT_EQ(net.edge_band(), d.radio_range);
  EXPECT_EQ(tiles.edge_band(), d.radio_range);
  expect_same_area(net.interest_area(), one_range, g.size(), "network");
  expect_same_area(tiles.area(), one_range, g.size(), "tiles");
}

}  // namespace
}  // namespace spr
