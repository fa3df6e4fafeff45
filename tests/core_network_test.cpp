#include "core/network.h"

#include <gtest/gtest.h>

#include "graph/graph_algos.h"
#include "safety/labeling.h"
#include "test_helpers.h"

namespace spr {
namespace {

TEST(Network, CreateBuildsAllStructures) {
  NetworkConfig config;
  config.deployment.node_count = 300;
  config.seed = 5;
  Network net = Network::create(config);
  EXPECT_EQ(net.graph().size(), 300u);
  EXPECT_EQ(net.safety().size(), 300u);
  EXPECT_GT(net.interest_area().interior_nodes().size(), 0u);
  EXPECT_GT(net.overlay().edge_count(), 0u);
}

TEST(Network, DerivedStructuresStartUnbuilt) {
  NetworkConfig config;
  config.deployment.node_count = 300;
  config.seed = 5;
  Network net = Network::create(config);
  EXPECT_FALSE(net.has_safety());
  EXPECT_FALSE(net.has_overlay());
  EXPECT_FALSE(net.has_boundhole());
  // The eager core is there regardless.
  EXPECT_EQ(net.graph().size(), 300u);
  EXPECT_GT(net.interest_area().interior_nodes().size(), 0u);
}

TEST(Network, AccessorsMemoize) {
  Network net = test::random_network(250, 3);
  const SafetyInfo* first = &net.safety();
  EXPECT_TRUE(net.has_safety());
  EXPECT_EQ(first, &net.safety());  // stable reference, built once
  const PlanarOverlay* overlay = &net.overlay();
  EXPECT_EQ(overlay, &net.overlay());
}

TEST(Network, ForceBuildsRequestedStructures) {
  Network net = test::random_network(250, 3);
  net.force(Network::kNeedsSafety | Network::kNeedsBoundhole);
  EXPECT_TRUE(net.has_safety());
  EXPECT_FALSE(net.has_overlay());
  EXPECT_TRUE(net.has_boundhole());
}

TEST(Network, NeedsForScheme) {
  EXPECT_EQ(Network::needs_for(Scheme::kGf), Network::kNeedsNone);
  EXPECT_EQ(Network::needs_for(Scheme::kLgf), Network::kNeedsNone);
  EXPECT_EQ(Network::needs_for(Scheme::kGfFace), Network::kNeedsOverlay);
  EXPECT_EQ(Network::needs_for(Scheme::kSlgf), Network::kNeedsSafety);
  EXPECT_EQ(Network::needs_for(Scheme::kSlgf2), Network::kNeedsSafety);
}

TEST(Network, MakeRouterForcesOnlyWhatTheSchemeUses) {
  {
    Network net = test::random_network(250, 3);
    auto router = net.make_router(Scheme::kSlgf2);
    EXPECT_TRUE(net.has_safety());
    EXPECT_FALSE(net.has_overlay());
    EXPECT_FALSE(net.has_boundhole());
  }
  {
    Network net = test::random_network(250, 3);
    auto router = net.make_router(Scheme::kGfFace);
    EXPECT_FALSE(net.has_safety());
    EXPECT_TRUE(net.has_overlay());
    EXPECT_FALSE(net.has_boundhole());
  }
  {
    Network net = test::random_network(250, 3);
    auto router = net.make_router(Scheme::kLgf);
    EXPECT_FALSE(net.has_safety());
    EXPECT_FALSE(net.has_overlay());
    EXPECT_FALSE(net.has_boundhole());
  }
}

TEST(Network, GfRoutingWithoutLocalMinimaBuildsNothing) {
  // Dense hole-free grid: greedy forwarding always progresses, so GF must
  // never materialize the overlay, BOUNDHOLE or safety labeling.
  Network net{test::dense_grid_deployment(400, 7)};
  auto router = net.make_router(Scheme::kGf);
  EXPECT_FALSE(net.has_overlay());
  EXPECT_FALSE(net.has_boundhole());

  Rng rng(21);
  int routed = 0;
  for (int trial = 0; trial < 12; ++trial) {
    auto [s, d] = net.random_connected_interior_pair(rng);
    ASSERT_NE(s, kInvalidNode);
    PathResult r = router->route(s, d);
    EXPECT_TRUE(r.delivered());
    ++routed;
  }
  EXPECT_GT(routed, 0);
  EXPECT_FALSE(net.has_safety());
  EXPECT_FALSE(net.has_overlay());
  EXPECT_FALSE(net.has_boundhole());
}

TEST(Network, GfRecoveryLazilyBuildsOnFirstLocalMinimum) {
  // A grid with a large void: some pair hits a local minimum, which must
  // pull in the recovery structures — and routing must still work.
  Deployment d = test::grid_with_void(
      20, 10.0, Rect::from_bounds({60.0, 60.0}, {140.0, 140.0}));
  Network net{std::move(d)};
  auto router = net.make_router(Scheme::kGf);
  EXPECT_FALSE(net.has_overlay());
  EXPECT_FALSE(net.has_boundhole());

  Rng rng(4);
  bool hit_minimum = false;
  for (int trial = 0; trial < 60 && !hit_minimum; ++trial) {
    auto [s, dd] = net.random_connected_interior_pair(rng);
    if (s == kInvalidNode) break;
    PathResult r = router->route(s, dd);
    hit_minimum = r.local_minima > 0;
  }
  ASSERT_TRUE(hit_minimum) << "no pair hit a local minimum; weak fixture";
  EXPECT_TRUE(net.has_boundhole());
}

TEST(Network, SameSeedSameNetwork) {
  NetworkConfig config;
  config.deployment.node_count = 200;
  config.seed = 77;
  Network a = Network::create(config);
  Network b = Network::create(config);
  for (NodeId u = 0; u < a.graph().size(); ++u) {
    EXPECT_EQ(a.graph().position(u), b.graph().position(u));
  }
  EXPECT_TRUE(a.safety() == b.safety());
}

TEST(Network, DifferentSeedsDiffer) {
  NetworkConfig config;
  config.deployment.node_count = 200;
  config.seed = 1;
  Network a = Network::create(config);
  config.seed = 2;
  Network b = Network::create(config);
  int same_positions = 0;
  for (NodeId u = 0; u < a.graph().size(); ++u) {
    if (a.graph().position(u) == b.graph().position(u)) ++same_positions;
  }
  EXPECT_EQ(same_positions, 0);
}

TEST(Network, MakeRouterAllSchemes) {
  Network net = test::random_network(250, 3);
  for (Scheme scheme : {Scheme::kGf, Scheme::kGfFace, Scheme::kLgf,
                        Scheme::kSlgf, Scheme::kSlgf2}) {
    auto router = net.make_router(scheme);
    ASSERT_NE(router, nullptr);
    EXPECT_FALSE(router->name().empty());
  }
}

TEST(Network, SchemeNames) {
  EXPECT_STREQ(scheme_name(Scheme::kGf), "GF");
  EXPECT_STREQ(scheme_name(Scheme::kGfFace), "GF/face");
  EXPECT_STREQ(scheme_name(Scheme::kLgf), "LGF");
  EXPECT_STREQ(scheme_name(Scheme::kSlgf), "SLGF");
  EXPECT_STREQ(scheme_name(Scheme::kSlgf2), "SLGF2");
}

TEST(Network, RandomInteriorPairDistinctInterior) {
  Network net = test::random_network(300, 9);
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    auto [s, d] = net.random_interior_pair(rng);
    ASSERT_NE(s, kInvalidNode);
    EXPECT_NE(s, d);
    EXPECT_FALSE(net.interest_area().is_edge_node(s));
    EXPECT_FALSE(net.interest_area().is_edge_node(d));
  }
}

TEST(Network, ConnectedPairIsConnected) {
  Network net = test::random_network(400, 10, DeployModel::kForbiddenAreas);
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    auto [s, d] = net.random_connected_interior_pair(rng);
    ASSERT_NE(s, kInvalidNode);
    EXPECT_TRUE(connected(net.graph(), s, d));
  }
}

TEST(Network, FaModelPropagatesToDeployment) {
  NetworkConfig config;
  config.deployment.node_count = 300;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 4;
  Network net = Network::create(config);
  EXPECT_FALSE(net.deployment().forbidden_areas.empty());
}

/// An empty network is an accepted input (`spr_cli label --nodes=0`): its
/// labeling, from scratch and through a failure wave, is empty, and the
/// kernel's zero-byte scratch is real memory (the sanitizer build checks
/// the memsets over it).
TEST(Network, EmptyNetworkLabels) {
  Deployment d;
  d.field = Rect::from_bounds({0.0, 0.0}, {200.0, 200.0});
  d.radio_range = 20.0;
  Network net{std::move(d)};
  EXPECT_EQ(compute_safety(net.graph(), net.interest_area()).size(), 0u);
  EXPECT_EQ(net.safety().size(), 0u);
  Network degraded = net.with_failures({});
  EXPECT_EQ(degraded.safety().size(), 0u);
}

TEST(Network, TinyNetworkNoInterior) {
  Deployment d;
  d.field = Rect::from_bounds({0.0, 0.0}, {50.0, 50.0});
  d.radio_range = 20.0;
  d.positions = {{10.0, 10.0}, {30.0, 30.0}};
  Network net{std::move(d)};
  Rng rng(3);
  auto [s, dd] = net.random_interior_pair(rng);
  EXPECT_EQ(s, kInvalidNode);
  EXPECT_EQ(dd, kInvalidNode);
}

}  // namespace
}  // namespace spr
