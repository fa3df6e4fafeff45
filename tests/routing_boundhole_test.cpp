#include "routing/boundhole.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "geometry/angle.h"
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

/// The TENT rule without tent_rule_stuck's short-gap guard: every gap
/// between angularly adjacent neighbours runs the arccos test.
bool unguarded_tent_stuck(const UnitDiskGraph& g, NodeId u) {
  auto nbrs = g.neighbors(u);
  if (nbrs.size() < 2) return true;
  const Vec2 pu = g.position(u);
  std::vector<std::pair<double, NodeId>> by_angle;
  for (NodeId v : nbrs) by_angle.emplace_back(bearing(pu, g.position(v)), v);
  std::sort(by_angle.begin(), by_angle.end());
  auto alpha = [&](NodeId v) {
    return std::acos(std::clamp(
        distance(pu, g.position(v)) / (2.0 * g.range()), 0.0, 1.0));
  };
  for (std::size_t i = 0; i < by_angle.size(); ++i) {
    const auto& [a1, v1] = by_angle[i];
    const auto& [a2, v2] = by_angle[(i + 1) % by_angle.size()];
    double gap = ccw_delta(a1, a2);
    if (i + 1 == by_angle.size() && gap == 0.0) gap = kTwoPi;
    if (gap == 0.0) continue;
    if (gap > alpha(v1) + alpha(v2) + 1e-12) return true;
  }
  return false;
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

/// The short-gap guard changes no verdict on any node of the networks
/// `PinnedOutputOnRandomNetworks` digests, blasted or not.
TEST(TentRule, GuardMatchesUnguardedRuleOnPinnedNetworks) {
  std::size_t nodes = 0, stuck = 0;
  for (DeployModel model : {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    for (int n : {400, 800}) {
      for (std::uint64_t seed : test::property_seeds()) {
        Network net = test::random_network(n, seed, model);
        for (const UnitDiskGraph& g : {net.graph(), blast_sibling(net)}) {
          for (NodeId u = 0; u < g.size(); ++u) {
            const bool expected = unguarded_tent_stuck(g, u);
            ASSERT_EQ(tent_rule_stuck(g, u), expected)
                << n << " nodes, seed " << seed << ", node " << u;
            ++nodes;
            stuck += expected ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_GT(stuck, 0u);
  EXPECT_LT(stuck, nodes);
}

/// Hand-built rows at the guard's edges. Node 0 sits at the origin with
/// every neighbour at the radio range (1e-15 of it inside, so the graph's
/// radius test keeps them whatever the last bit of sin and cos): two
/// neighbours `gap` apart, and four more spreading the rest of the circle
/// in gaps of about 0.84 rad. Both alphas are then pi/3, so only a gap over
/// 2*pi/3 passes: 2*pi/3 + 1e-9 is stuck, 2*pi/3 - 1e-9 is not, and
/// 2.09 +- 1e-9 straddles the guard's bound with both verdicts "not stuck".
TEST(TentRule, GuardMatchesUnguardedRuleAtTheGapBounds) {
  const double range = 10.0;
  const double third = kTwoPi / 3.0;
  const struct {
    double gap;
    bool stuck;
  } rows[] = {{third + 1e-9, true},
              {third - 1e-9, false},
              {2.09 + 1e-9, false},
              {2.09 - 1e-9, false}};
  for (const auto& row : rows) {
    std::vector<double> bearings = {0.0, row.gap};
    for (int k = 1; k <= 4; ++k) {
      bearings.push_back(row.gap + (kTwoPi - row.gap) * k / 5.0);
    }
    std::vector<Vec2> pts = {{0.0, 0.0}};
    const double at = range * (1.0 - 1e-15);
    for (double b : bearings) pts.push_back({at * std::cos(b), at * std::sin(b)});
    UnitDiskGraph g = test::make_graph(pts, range);
    ASSERT_EQ(g.degree(0), bearings.size()) << "gap " << row.gap;
    EXPECT_EQ(unguarded_tent_stuck(g, 0), row.stuck) << "gap " << row.gap;
    EXPECT_EQ(tent_rule_stuck(g, 0), row.stuck) << "gap " << row.gap;
  }
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

/// A ring of `ring` nodes 10 m apart around a void, each linked only to
/// its two ring neighbours (12 m range), plus `isolated` edgeless nodes
/// 30 m apart, in a 1000 m field. Every ring node is stuck and the first
/// walk closes after visiting each of them once, so its cycle holds `ring`
/// nodes; the isolated nodes only raise n.
UnitDiskGraph void_ring(int ring, int isolated) {
  std::vector<Vec2> pts;
  const double radius = 5.0 / std::sin(kTwoPi / (2.0 * ring));
  for (int i = 0; i < ring; ++i) {
    const double theta = kTwoPi * i / ring;
    pts.push_back({500.0 + radius * std::cos(theta),
                   500.0 + radius * std::sin(theta)});
  }
  for (int i = 0; i < isolated; ++i) {
    pts.push_back({10.0 + 30.0 * (i % 30), 10.0 + 30.0 * (i / 30)});
  }
  return UnitDiskGraph(std::move(pts), 12.0,
                       Rect::from_bounds({0.0, 0.0}, {1000.0, 1000.0}));
}

/// The keep bound is inclusive: a boundary of exactly max(16, n/4) nodes
/// is kept, one of a node more is discarded, under the 16-node floor and
/// under n/4 alike.
TEST(BoundHole, KeepsBoundariesOfAtMostAQuarterOfTheNodes) {
  const struct {
    int ring;
    int isolated;
    bool kept;
  } rows[] = {{16, 0, true}, {17, 0, false}, {20, 60, true}, {21, 60, false}};
  for (const auto& row : rows) {
    UnitDiskGraph g = void_ring(row.ring, row.isolated);
    const auto keep = std::max<std::size_t>(16, g.size() / 4);
    ASSERT_EQ(keep + (row.kept ? 0 : 1), static_cast<std::size_t>(row.ring));
    BoundHoleInfo info(g);
    EXPECT_EQ(info.stuck_count(), static_cast<std::size_t>(row.ring));
    if (row.kept) {
      ASSERT_EQ(info.boundaries().size(), 1u) << row.ring << "-node ring";
      EXPECT_EQ(info.boundaries()[0].cycle.size(), keep);
    } else {
      EXPECT_TRUE(info.boundaries().empty()) << row.ring << "-node ring";
    }
  }
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
