#include "routing/router.h"

#include <gtest/gtest.h>

#include "core/network.h"
#include "test_helpers.h"

namespace spr {
namespace {

const Scheme kAllSchemes[] = {Scheme::kGf, Scheme::kGfFace, Scheme::kLgf,
                              Scheme::kSlgf, Scheme::kSlgf2};

/// Stepping an armed slot hop by hop walks route()'s path exactly — the
/// packet sits at path[k] after k steps — and ends with route()'s nodes,
/// phases, float-exact length, status and local-minimum count.
TEST(RouteStepper, StepToCompletionEqualsRoutePerScheme) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    Rng rng(seed ^ 0xabc);
    for (Scheme scheme : kAllSchemes) {
      auto router = net.make_router(scheme);
      for (int trial = 0; trial < 8; ++trial) {
        auto [s, d] = net.random_connected_interior_pair(rng);
        if (s == kInvalidNode) continue;
        PathResult atomic = router->route(s, d);
        RouteStepper stepper;
        router->restart_stepper(stepper, s, d);
        std::size_t hops = 0;
        while (stepper.step()) {
          ++hops;
          ASSERT_LT(hops, atomic.path.size());
          EXPECT_EQ(stepper.current(), atomic.path[hops]);
        }
        PathResult stepped = stepper.take_result();
        EXPECT_EQ(stepped.status, atomic.status);
        EXPECT_EQ(stepped.path, atomic.path);
        EXPECT_EQ(stepped.hop_phases, atomic.hop_phases);
        EXPECT_EQ(stepped.length, atomic.length);  // bit-exact
        EXPECT_EQ(stepped.local_minima, atomic.local_minima);
      }
    }
  }
}

TEST(RouteStepper, PartialWalkIsObservableBetweenSteps) {
  Network net = test::random_network(400, 7);
  Rng rng(3);
  auto [s, d] = net.random_connected_interior_pair(rng);
  ASSERT_NE(s, kInvalidNode);
  auto router = net.make_router(Scheme::kSlgf2);
  RouteStepper stepper;
  router->restart_stepper(stepper, s, d);
  ASSERT_TRUE(stepper.in_flight());
  EXPECT_EQ(stepper.current(), s);
  EXPECT_EQ(stepper.destination(), d);
  ASSERT_EQ(stepper.result().path.size(), 1u);
  std::size_t hops = 0;
  while (stepper.step()) {
    ++hops;
    // The partial result grows hop by hop; the head is always `s`.
    EXPECT_EQ(stepper.result().path.size(), hops + 1);
    EXPECT_EQ(stepper.result().path.front(), s);
    EXPECT_EQ(stepper.result().path.back(), stepper.current());
  }
}

TEST(RouteStepper, TtlLimitCapsTheWalk) {
  Network net = test::random_network(400, 9);
  Rng rng(5);
  auto [s, d] = net.random_connected_interior_pair(rng);
  ASSERT_NE(s, kInvalidNode);
  auto router = net.make_router(Scheme::kLgf);
  PathResult full = router->route(s, d);
  ASSERT_TRUE(full.delivered());
  if (full.hops() < 2) GTEST_SKIP() << "pair too close for a cap test";
  RouteStepper stepper;
  router->restart_stepper(stepper, s, d, {}, full.hops() - 1);
  while (stepper.step()) {
  }
  PathResult capped = stepper.take_result();
  EXPECT_EQ(capped.status, RouteStatus::kTtlExpired);
  EXPECT_EQ(capped.hops(), full.hops() - 1);
}

TEST(RouteStepper, RemainingTtlResumesWithoutExtendingLife) {
  // A walk split at hop k and resumed with the remaining budget must spend
  // exactly the same total budget as the unsplit walk.
  Network net = test::random_network(400, 11);
  Rng rng(8);
  auto [s, d] = net.random_connected_interior_pair(rng);
  ASSERT_NE(s, kInvalidNode);
  auto router = net.make_router(Scheme::kLgf);
  RouteStepper first;
  router->restart_stepper(first, s, d);
  std::size_t initial_budget = first.ttl_remaining();
  ASSERT_TRUE(first.step());
  EXPECT_EQ(first.ttl_remaining(), initial_budget - 1);
  NodeId at = first.current();
  RouteStepper resumed;
  router->restart_stepper(resumed, at, d, {}, first.ttl_remaining());
  EXPECT_EQ(resumed.ttl_remaining(), initial_budget - 1);
}

/// A pooled slot restarted in place across many pairs must walk exactly
/// like route(), which arms a fresh slot every time — the reuse path
/// (header reset, capacity-keeping buffer clears, release between lives)
/// must leak no state from one flight into the next.
TEST(RouteStepper, RestartInPlaceEqualsFreshStepperPerScheme) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    Rng rng(seed ^ 0xdef);
    for (Scheme scheme : kAllSchemes) {
      auto router = net.make_router(scheme);
      RouteStepper pooled;  // one slot, re-armed for every pair
      // A second slot steps with path recording off, as StreamSim's
      // flights do: the same walk and aggregates, nothing recorded.
      RouteStepper pathless;
      for (int trial = 0; trial < 8; ++trial) {
        auto [s, d] = net.random_connected_interior_pair(rng);
        if (s == kInvalidNode) continue;
        PathResult want = router->route(s, d);
        router->restart_stepper(pooled, s, d, {});
        router->restart_stepper(pathless, s, d, {});
        pathless.set_record_path(false);
        ASSERT_TRUE(pooled.in_flight());
        ASSERT_TRUE(pathless.in_flight());
        while (pooled.step()) {
          ASSERT_TRUE(pathless.step());
          EXPECT_EQ(pathless.current(), pooled.current());
        }
        EXPECT_FALSE(pathless.step());
        EXPECT_EQ(pathless.current(), pooled.current());
        PathResult got = pooled.take_result();
        EXPECT_EQ(got.status, want.status);
        EXPECT_EQ(got.path, want.path);
        EXPECT_EQ(got.hop_phases, want.hop_phases);
        EXPECT_EQ(got.length, want.length);  // bit-exact
        EXPECT_EQ(got.local_minima, want.local_minima);
        const PathResult& bare = pathless.result();
        EXPECT_EQ(bare.status, want.status);
        EXPECT_EQ(bare.length, want.length);  // bit-exact
        EXPECT_EQ(bare.local_minima, want.local_minima);
        EXPECT_EQ(pathless.hops_taken(), want.hops());
        // Arming records the source; with recording off no hop follows it.
        EXPECT_EQ(bare.path, std::vector<NodeId>{s});
        EXPECT_TRUE(bare.hop_phases.empty());
        if (trial % 3 == 0) {  // reuse after release too
          pooled.release();
          pathless.release();
        }
      }
    }
  }
}

/// Re-arming honors the degenerate-endpoint contract on a slot that has
/// walked before: s == d delivers immediately, out-of-range endpoints
/// finish as an empty dead end, and an explicit TTL caps the walk.
TEST(RouteStepper, RestartHandlesDegenerateEndpointsAndTtl) {
  Network net = test::random_network(400, 17);
  auto router = net.make_router(Scheme::kLgf);
  RouteStepper pooled;
  router->restart_stepper(pooled, 5, 5, {});
  EXPECT_FALSE(pooled.in_flight());
  EXPECT_EQ(pooled.result().status, RouteStatus::kDelivered);
  EXPECT_EQ(pooled.result().path, std::vector<NodeId>{5});
  router->restart_stepper(pooled, kInvalidNode, 5, {});
  EXPECT_FALSE(pooled.in_flight());
  EXPECT_EQ(pooled.result().status, RouteStatus::kDeadEnd);
  EXPECT_TRUE(pooled.result().path.empty());

  Rng rng(6);
  auto [s, d] = net.random_connected_interior_pair(rng);
  ASSERT_NE(s, kInvalidNode);
  PathResult full = router->route(s, d);
  if (full.delivered() && full.hops() >= 2) {
    router->restart_stepper(pooled, s, d, {}, full.hops() - 1);
    while (pooled.step()) {
    }
    PathResult capped = pooled.take_result();
    EXPECT_EQ(capped.status, RouteStatus::kTtlExpired);
    EXPECT_EQ(capped.hops(), full.hops() - 1);
  }
}

/// A fresh slot finishes degenerate walks on arming, as route() reports
/// them: s == d delivers with the one-node path and takes no step, and
/// out-of-range endpoints are the empty dead end.
TEST(RouteStepper, DegenerateEndpointsFinishOnArming) {
  Network net = test::random_network(400, 13);
  auto router = net.make_router(Scheme::kGf);
  RouteStepper same;
  router->restart_stepper(same, 5, 5);
  EXPECT_FALSE(same.in_flight());
  EXPECT_EQ(same.result().status, RouteStatus::kDelivered);
  EXPECT_EQ(same.result().path, std::vector<NodeId>{5});
  EXPECT_FALSE(same.step());
  EXPECT_EQ(router->route(5, 5).path, same.result().path);
  RouteStepper invalid;
  router->restart_stepper(invalid, kInvalidNode, 5);
  EXPECT_FALSE(invalid.in_flight());
  EXPECT_EQ(invalid.result().status, RouteStatus::kDeadEnd);
  EXPECT_TRUE(invalid.result().path.empty());
  EXPECT_EQ(router->route(kInvalidNode, 5).status, RouteStatus::kDeadEnd);
}

}  // namespace
}  // namespace spr
