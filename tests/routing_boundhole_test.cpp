#include "routing/boundhole.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "test_helpers.h"

namespace spr {
namespace {

/// FNV-1a over every output of a BOUNDHOLE build on `g`: per node the stuck
/// flag, boundary index and cycle position, then each boundary cycle in
/// order. Folding several builds into one hash pins a whole input set.
class BoundHoleDigest {
 public:
  void add(const UnitDiskGraph& g) {
    BoundHoleInfo info(g);
    mix(g.size());
    for (NodeId u = 0; u < g.size(); ++u) {
      mix(info.is_stuck(u) ? 1 : 0);
      mix(info.boundary_of(u));
      mix(info.cycle_position(u));
    }
    mix(info.boundaries().size());
    for (const auto& b : info.boundaries()) {
      mix(b.cycle.size());
      for (NodeId v : b.cycle) mix(v);
    }
  }

  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash_));
    return buf;
  }

 private:
  template <typename T>
  void mix(T value) {
    auto bits = static_cast<std::uint64_t>(static_cast<std::int64_t>(value));
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (bits >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }

  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// A failure-dynamics blast: every node within 35 m (that scenario's blast
/// radius) of the field centre dies, and BOUNDHOLE runs on the degraded
/// sibling, as the scenario does.
UnitDiskGraph blast_sibling(const Network& net) {
  const UnitDiskGraph& g = net.graph();
  Vec2 centre = g.bounds().center();
  std::vector<NodeId> casualties;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (distance(g.position(u), centre) <= 35.0) casualties.push_back(u);
  }
  return g.with_failures(casualties);
}

TEST(TentRule, IsolatedAndLeafNodesAreStuck) {
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}, {100.0, 100.0}}, 12.0);
  EXPECT_TRUE(tent_rule_stuck(g, 0));  // single neighbor
  EXPECT_TRUE(tent_rule_stuck(g, 1));
}

TEST(TentRule, WideGapIsStuck) {
  // Two neighbors 90 degrees apart leave a 270-degree gap: stuck.
  auto g = test::make_graph({{0.0, 0.0}, {10.0, 0.0}, {0.0, 10.0}}, 12.0);
  EXPECT_TRUE(tent_rule_stuck(g, 0));
}

TEST(TentRule, DenseGridInteriorNotStuck) {
  Deployment dep = test::dense_grid_deployment(400, 12);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  InterestArea area(g, g.range());
  int stuck_interior = 0;
  for (NodeId u : area.interior_nodes()) {
    if (tent_rule_stuck(g, u)) ++stuck_interior;
  }
  // A dense perturbed grid has no stuck interior nodes (holes need voids).
  EXPECT_EQ(stuck_interior, 0);
}

TEST(TentRule, VoidEdgeNodesAreStuck) {
  Deployment dep = test::grid_with_void(
      20, 10.0, Rect::from_corners({60.0, 60.0}, {140.0, 140.0}));
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  // Node just west of the void looking east into it: (50,100).
  NodeId wall = kInvalidNode;
  for (NodeId u = 0; u < g.size(); ++u) {
    if (g.position(u) == Vec2(50.0, 100.0)) wall = u;
  }
  ASSERT_NE(wall, kInvalidNode);
  EXPECT_TRUE(tent_rule_stuck(g, wall));
}

TEST(BoundHole, FindsBoundaryAroundVoid) {
  Deployment dep = test::grid_with_void(
      20, 10.0, Rect::from_corners({60.0, 60.0}, {140.0, 140.0}));
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  BoundHoleInfo info(g);
  EXPECT_GT(info.stuck_count(), 0u);
  ASSERT_GT(info.boundaries().size(), 0u);
  // At least one boundary should ring the void: it must contain nodes on
  // at least three sides of the void rectangle.
  bool found_ring = false;
  for (const auto& b : info.boundaries()) {
    bool west = false, east = false, north = false, south = false;
    for (NodeId u : b.cycle) {
      Vec2 p = g.position(u);
      if (p.x <= 60.0 && p.y > 60.0 && p.y < 140.0) west = true;
      if (p.x >= 140.0 && p.y > 60.0 && p.y < 140.0) east = true;
      if (p.y >= 140.0 && p.x > 60.0 && p.x < 140.0) north = true;
      if (p.y <= 60.0 && p.x > 60.0 && p.x < 140.0) south = true;
    }
    if (static_cast<int>(west) + east + north + south >= 3) found_ring = true;
  }
  EXPECT_TRUE(found_ring);
}

TEST(BoundHole, CyclesAreClosedWalks) {
  Deployment dep = test::grid_with_void(
      20, 10.0, Rect::from_corners({60.0, 60.0}, {140.0, 140.0}));
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  BoundHoleInfo info(g);
  for (const auto& b : info.boundaries()) {
    ASSERT_GE(b.cycle.size(), 3u);
    for (std::size_t i = 0; i + 1 < b.cycle.size(); ++i) {
      EXPECT_TRUE(g.are_neighbors(b.cycle[i], b.cycle[i + 1]))
          << "cycle gap at " << i;
    }
    // Closing edge back to the start.
    EXPECT_TRUE(g.are_neighbors(b.cycle.back(), b.cycle.front()));
  }
}

TEST(BoundHole, MembershipIndexConsistent) {
  Network net = test::random_network(450, 61, DeployModel::kForbiddenAreas);
  const auto& info = net.boundhole();
  for (std::size_t b = 0; b < info.boundaries().size(); ++b) {
    for (NodeId u : info.boundaries()[b].cycle) {
      int owner = info.boundary_of(u);
      ASSERT_NE(owner, -1);
      // A node may appear on several walks; its recorded cycle position must
      // point back at itself within its owning boundary.
      int pos = info.cycle_position(u);
      ASSERT_GE(pos, 0);
      EXPECT_EQ(info.boundaries()[static_cast<size_t>(owner)]
                    .cycle[static_cast<size_t>(pos)],
                u);
    }
  }
}

TEST(BoundHole, RandomNetworksProduceStuckNodesUnderFa) {
  std::size_t total_stuck = 0;
  for (std::uint64_t seed : {11ull, 23ull}) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    total_stuck += net.boundhole().stuck_count();
  }
  EXPECT_GT(total_stuck, 0u);
}

/// Exact-output pin: any change to stuck detection, walk order or the
/// keep/discard filters moves one of these digests. Each row folds
/// property_seeds() in order.
TEST(BoundHole, PinnedOutputOnRandomNetworks) {
  struct Row {
    DeployModel model;
    int nodes;
    bool failures;
    const char* digest;
  };
  const Row rows[] = {
      {DeployModel::kIdeal, 400, false, "1d9cde782b108a99"},
      {DeployModel::kIdeal, 800, false, "9f303316a862ae75"},
      {DeployModel::kForbiddenAreas, 400, false, "9984d19c1123e6c6"},
      {DeployModel::kForbiddenAreas, 800, false, "831640e18c2fdbb2"},
      {DeployModel::kIdeal, 400, true, "681bea43e166cc31"},
      {DeployModel::kForbiddenAreas, 400, true, "e80838e15a0021d1"},
  };
  for (const Row& row : rows) {
    BoundHoleDigest digest;
    for (std::uint64_t seed : test::property_seeds()) {
      Network net = test::random_network(row.nodes, seed, row.model);
      if (row.failures) {
        digest.add(blast_sibling(net));
      } else {
        digest.add(net.graph());
      }
    }
    EXPECT_EQ(digest.hex(), row.digest)
        << (row.model == DeployModel::kIdeal ? "IA " : "FA ") << row.nodes
        << (row.failures ? " with failures" : "");
  }
}

TEST(BoundHole, PinnedOutputOnVoidGrid) {
  Deployment dep = test::grid_with_void(
      20, 10.0, Rect::from_corners({60.0, 60.0}, {140.0, 140.0}));
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  BoundHoleDigest digest;
  digest.add(g);
  EXPECT_EQ(digest.hex(), "a4f810cc2f4cd618");
}

/// A hand-built hole holding the sweep's float tie cases. A 7x7 grid at
/// 10 m spacing and 15 m range (8-connected) loses its centre 3x3, and
/// three nodes are added:
///  - 40 at (25,10), on the x axis between (20,10) and (30,10), so from
///    (30,10) both lie at bearing pi exactly;
///  - 41 at (22,30), a degree-1 spur into the hole off (10,30);
///  - 42 at (50,30), a duplicate of node 20's coordinate, so from (50,40)
///    both lie at bearing 3pi/2 exactly.
/// Ties go to the lower neighbour id, and the walk runs into the spur and
/// back out.
TEST(BoundHole, HandBuiltTiesDuplicateAndSpur) {
  std::vector<Vec2> pts;
  for (int row = 0; row <= 6; ++row) {
    for (int col = 0; col <= 6; ++col) {
      if (row >= 2 && row <= 4 && col >= 2 && col <= 4) continue;
      pts.push_back({col * 10.0, row * 10.0});
    }
  }
  pts.push_back({25.0, 10.0});
  pts.push_back({22.0, 30.0});
  pts.push_back({50.0, 30.0});
  UnitDiskGraph g = test::make_graph(pts, 15.0);
  ASSERT_EQ(g.size(), 43u);
  ASSERT_EQ(g.degree(41), 1u);
  ASSERT_TRUE(g.are_neighbors(20, 42));

  BoundHoleInfo info(g);
  const std::vector<NodeId> not_stuck = {8, 9, 12, 19, 27, 31};
  for (NodeId u = 0; u < g.size(); ++u) {
    bool expect_stuck =
        std::find(not_stuck.begin(), not_stuck.end(), u) == not_stuck.end();
    EXPECT_EQ(info.is_stuck(u), expect_stuck) << "node " << u;
  }

  ASSERT_EQ(info.boundaries().size(), 1u);
  // (30,10) (20,10) (10,20) (10,30) (22,30) (10,30) (10,40) (20,50) (30,50)
  // (40,50) (50,40) (50,30) (50,20) (40,10)
  const std::vector<NodeId> ring = {10, 9,  15, 19, 41, 19, 23,
                                    28, 29, 30, 24, 20, 16, 11};
  EXPECT_EQ(info.boundaries()[0].cycle, ring);
  for (NodeId u = 0; u < g.size(); ++u) {
    auto at = std::find(ring.begin(), ring.end(), u);
    bool on_ring = at != ring.end();
    EXPECT_EQ(info.boundary_of(u), on_ring ? 0 : -1) << "node " << u;
    EXPECT_EQ(info.cycle_position(u),
              on_ring ? static_cast<int>(at - ring.begin()) : -1)
        << "node " << u;
  }
}

}  // namespace
}  // namespace spr
