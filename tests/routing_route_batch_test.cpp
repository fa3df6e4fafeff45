/// \file routing_route_batch_test.cpp
/// route_batch ≡ loop-of-route, for every scheme the sweep runs (the four
/// paper schemes plus GF/face) and for the baselines. The batch re-arms
/// one slot per pair, reusing its header and buffers, so any state leaking
/// between packets shows up as a divergence here.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "core/network.h"
#include "routing/baselines.h"
#include "test_helpers.h"

namespace spr {
namespace {

std::vector<std::pair<NodeId, NodeId>> batch_pairs(const Network& net,
                                                   std::uint64_t seed,
                                                   int count) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < count; ++i) {
    auto pair = net.random_connected_interior_pair(rng);
    if (pair.first != kInvalidNode) pairs.push_back(pair);
  }
  // Shared sources, a repeated pair, and a self-pair: the states most
  // likely to expose stale header reuse.
  if (pairs.size() >= 2) {
    pairs.emplace_back(pairs[0].first, pairs[1].second);
    pairs.push_back(pairs[0]);
    pairs.emplace_back(pairs[1].first, pairs[1].first);
  }
  return pairs;
}

void expect_identical(const PathResult& a, const PathResult& b,
                      const char* label, std::size_t i) {
  EXPECT_EQ(a.status, b.status) << label << " pair " << i;
  EXPECT_EQ(a.path, b.path) << label << " pair " << i;
  EXPECT_EQ(a.hop_phases, b.hop_phases) << label << " pair " << i;
  EXPECT_EQ(a.length, b.length) << label << " pair " << i;  // bitwise
  EXPECT_EQ(a.local_minima, b.local_minima) << label << " pair " << i;
}

TEST(RouteBatch, EquivalentToLoopOfRouteForEveryScheme) {
  const Scheme schemes[] = {Scheme::kGf, Scheme::kGfFace, Scheme::kLgf,
                            Scheme::kSlgf, Scheme::kSlgf2};
  for (DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    Network net = test::random_network(400, 21, model);
    auto pairs = batch_pairs(net, 77, 12);
    ASSERT_FALSE(pairs.empty());
    for (Scheme scheme : schemes) {
      auto router = net.make_router(scheme);
      auto batch = router->route_batch(pairs);
      ASSERT_EQ(batch.size(), pairs.size()) << scheme_name(scheme);
      for (std::size_t i = 0; i < pairs.size(); ++i) {
        PathResult single = router->route(pairs[i].first, pairs[i].second);
        expect_identical(batch[i], single, scheme_name(scheme), i);
      }
    }
  }
}

TEST(RouteBatch, RespectsRouteOptions) {
  Network net = test::random_network(400, 23, DeployModel::kForbiddenAreas);
  auto pairs = batch_pairs(net, 5, 8);
  RouteOptions tight;
  tight.ttl_factor = 1;
  auto router = net.make_router(Scheme::kSlgf2);
  auto batch = router->route_batch(pairs, tight);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    PathResult single = router->route(pairs[i].first, pairs[i].second, tight);
    expect_identical(batch[i], single, "SLGF2/ttl", i);
  }
}

TEST(RouteBatch, EquivalentToLoopOfRouteForBaselineRouters) {
  Network net = test::random_network(400, 29);
  auto pairs = batch_pairs(net, 31, 8);
  MfrRouter mfr(net.graph());
  CompassRouter compass(net.graph());
  FloodingRouter flooding(net.graph());
  const Router* routers[] = {&mfr, &compass, &flooding};
  for (const Router* router : routers) {
    auto batch = router->route_batch(pairs);
    ASSERT_EQ(batch.size(), pairs.size()) << router->name();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      PathResult single = router->route(pairs[i].first, pairs[i].second);
      expect_identical(batch[i], single, router->name().data(), i);
    }
  }
}

TEST(RouteBatch, InvalidEndpointsYieldDeadEnd) {
  // A failed connected-pair draw hands callers {kInvalidNode, kInvalidNode};
  // routing it must degrade to an empty dead-end result, batch and single.
  Network net = test::random_network(400, 41);
  std::vector<std::pair<NodeId, NodeId>> pairs = {
      {kInvalidNode, kInvalidNode}, {0, kInvalidNode}, {kInvalidNode, 0}};
  auto gf = net.make_router(Scheme::kGf);
  auto slgf2 = net.make_router(Scheme::kSlgf2);
  MfrRouter mfr(net.graph());
  CompassRouter compass(net.graph());
  FloodingRouter flooding(net.graph());
  const Router* routers[] = {gf.get(), slgf2.get(), &mfr, &compass, &flooding};
  for (const Router* router : routers) {
    auto batch = router->route_batch(pairs);
    ASSERT_EQ(batch.size(), pairs.size()) << router->name();
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      PathResult single = router->route(pairs[i].first, pairs[i].second);
      EXPECT_EQ(single.status, RouteStatus::kDeadEnd) << router->name();
      EXPECT_TRUE(single.path.empty()) << router->name();
      expect_identical(batch[i], single, router->name().data(), i);
    }
  }
}

TEST(RouteBatch, EmptySpanYieldsEmptyResult) {
  Network net = test::random_network(400, 37);
  auto router = net.make_router(Scheme::kLgf);
  EXPECT_TRUE(router->route_batch({}).empty());
}

}  // namespace
}  // namespace spr
