#include "core/experiment.h"

#include <gtest/gtest.h>

#include "graph/graph_algos.h"
#include "util/check.h"

namespace spr {
namespace {

SweepConfig tiny_sweep() {
  SweepConfig config;
  config.node_counts = {400};
  config.networks_per_point = 2;
  config.pairs_per_network = 4;
  config.schemes = SweepConfig::paper_schemes();
  return config;
}

TEST(Experiment, RunsAllSchemesAndPoints) {
  SweepConfig config = tiny_sweep();
  config.node_counts = {400, 450};
  auto points = run_sweep(config);
  ASSERT_EQ(points.size(), 2u);
  EXPECT_EQ(points[0].node_count, 400);
  EXPECT_EQ(points[1].node_count, 450);
  for (const auto& point : points) {
    ASSERT_EQ(point.by_scheme.size(), 4u);
    for (const auto& [label, agg] : point.by_scheme) {
      EXPECT_EQ(agg.attempted, 8u) << label;  // 2 networks x 4 pairs
    }
  }
}

TEST(Experiment, PairedSchemesSeeSamePairCount) {
  auto points = run_sweep(tiny_sweep());
  const auto& by_scheme = points[0].by_scheme;
  std::size_t attempted = by_scheme.begin()->second.attempted;
  for (const auto& [label, agg] : by_scheme) {
    EXPECT_EQ(agg.attempted, attempted) << label;
  }
}

TEST(Experiment, DeterministicAcrossRuns) {
  auto a = run_sweep(tiny_sweep());
  auto b = run_sweep(tiny_sweep());
  const auto& agg_a = a[0].by_scheme.at("SLGF2");
  const auto& agg_b = b[0].by_scheme.at("SLGF2");
  EXPECT_EQ(agg_a.delivered, agg_b.delivered);
  EXPECT_DOUBLE_EQ(agg_a.hops.mean(), agg_b.hops.mean());
  EXPECT_DOUBLE_EQ(agg_a.length.mean(), agg_b.length.mean());
}

TEST(Experiment, ModelsProduceDifferentNetworks) {
  SweepConfig ia = tiny_sweep();
  SweepConfig fa = tiny_sweep();
  fa.model = DeployModel::kForbiddenAreas;
  auto pa = run_sweep(ia);
  auto pb = run_sweep(fa);
  // Different deployments: at least the mean hop counts should differ.
  EXPECT_NE(pa[0].by_scheme.at("SLGF2").hops.mean(),
            pb[0].by_scheme.at("SLGF2").hops.mean());
}

TEST(Experiment, ProgressCallbackFires) {
  int calls = 0;
  SweepConfig config = tiny_sweep();
  run_sweep(config, [&](int, int, int) { ++calls; });
  EXPECT_EQ(calls, 2);  // one per network
}

TEST(Experiment, ProgressCallbackFiresOncePerCellUnderParallelism) {
  // The callback is serialized by the sweep, so a plain int is enough even
  // with worker threads.
  int calls = 0;
  SweepConfig config = tiny_sweep();
  config.node_counts = {400, 450};
  config.threads = 4;
  run_sweep(config, [&](int, int, int) { ++calls; });
  EXPECT_EQ(calls, 4);  // 2 points x 2 networks
}

TEST(Experiment, ParallelAggregatesBitIdenticalToSerial) {
  SweepConfig config = tiny_sweep();
  config.node_counts = {400, 450};
  config.networks_per_point = 3;
  config.pairs_per_network = 3;

  config.threads = 1;
  auto serial = run_sweep(config);
  for (int threads : {0, 2, 5}) {
    config.threads = threads;
    auto parallel = run_sweep(config);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t pi = 0; pi < serial.size(); ++pi) {
      for (const auto& [label, agg] : serial[pi].by_scheme) {
        const auto& other = parallel[pi].by_scheme.at(label);
        EXPECT_EQ(agg.attempted, other.attempted) << label;
        EXPECT_EQ(agg.delivered, other.delivered) << label;
        // Bit-identical, not just approximately equal: the merge replays
        // samples in cell order, so every moment matches exactly.
        EXPECT_EQ(agg.hops.count(), other.hops.count()) << label;
        EXPECT_EQ(agg.hops.sum(), other.hops.sum()) << label;
        EXPECT_EQ(agg.hops.mean(), other.hops.mean()) << label;
        EXPECT_EQ(agg.hops.variance(), other.hops.variance()) << label;
        EXPECT_EQ(agg.length.sum(), other.length.sum()) << label;
        EXPECT_EQ(agg.length.mean(), other.length.mean()) << label;
        EXPECT_EQ(agg.stretch_hops.mean(), other.stretch_hops.mean()) << label;
        EXPECT_EQ(agg.stretch_length.mean(), other.stretch_length.mean())
            << label;
        EXPECT_EQ(agg.local_minima.sum(), other.local_minima.sum()) << label;
        EXPECT_EQ(agg.hops.max(), other.hops.max()) << label;
        EXPECT_EQ(agg.hops.min(), other.hops.min()) << label;
      }
    }
  }
}

/// merge_cell_results keys points by node count, so a repeated count
/// would pool two points' cells into one: run_sweep rejects it before
/// running any cell.
TEST(Experiment, DuplicateNodeCountFailsTheCheck) {
  ScopedCheckHandler guard(throwing_check_handler);
  SweepConfig config = tiny_sweep();
  config.node_counts = {400, 450, 400};
  int calls = 0;
  EXPECT_THROW(run_sweep(config, [&](int, int, int) { ++calls; }),
               CheckError);
  EXPECT_EQ(calls, 0);
}

TEST(Experiment, OneSearchPerPairPerMetricPerCell) {
  // The acceptance check for the point-to-point oracle: a cell runs exactly
  // one bidirectional BFS and one A* per drawn pair, however many schemes
  // it routes, and no other oracle search.
  SweepConfig config = tiny_sweep();
  config.networks_per_point = 1;
  config.pairs_per_network = 12;

  // Reconstruct the cell's traffic to count its pairs.
  NetworkConfig nc;
  nc.deployment = config.deployment_template;
  nc.deployment.model = config.model;
  nc.deployment.node_count = 400;
  nc.seed = sweep_cell_seed(config, 400, 0);
  Network network = Network::create(nc);
  auto pairs = sweep_cell_pairs(config, network, 400, 0);
  ASSERT_FALSE(pairs.empty());

  reset_oracle_search_counts();
  SweepTimings timings;
  run_sweep(config, {}, &timings);
  EXPECT_EQ(timings.bfs_searches, pairs.size());
  EXPECT_EQ(timings.dijkstra_searches, pairs.size());
  EXPECT_EQ(timings.pairs_routed, pairs.size());
  // The process-wide hook agrees: the sweep ran no other oracle searches
  // (the pair draw's connectivity checks are not counted).
  auto counts = oracle_search_counts();
  EXPECT_EQ(counts.bfs_trees, pairs.size());
  EXPECT_EQ(counts.dijkstra_trees, pairs.size());
}

TEST(Experiment, RequestedPairsAccounted) {
  SweepConfig config = tiny_sweep();
  auto points = run_sweep(config);
  for (const auto& [label, agg] : points[0].by_scheme) {
    EXPECT_EQ(agg.requested, 8u) << label;  // 2 networks x 4 pairs
    EXPECT_LE(agg.attempted, agg.requested) << label;
    EXPECT_EQ(agg.pair_shortfall(), agg.requested - agg.attempted) << label;
  }
}

TEST(Experiment, PairShortfallSurfacesOnUndrawablePairs) {
  // Three nodes cannot yield interior pairs (the hull owns them all), so
  // every configured pair goes undrawn — which must be visible, not a
  // silently smaller sample.
  SweepConfig config = tiny_sweep();
  config.node_counts = {3};
  config.networks_per_point = 1;
  SweepTimings timings;
  auto points = run_sweep(config, {}, &timings);
  for (const auto& [label, agg] : points[0].by_scheme) {
    EXPECT_EQ(agg.requested, 4u) << label;
    EXPECT_EQ(agg.attempted, 0u) << label;
    EXPECT_EQ(agg.pair_shortfall(), 4u) << label;
  }
  EXPECT_EQ(timings.pairs_requested, 4u);
  EXPECT_EQ(timings.pairs_routed, 0u);
}

TEST(Experiment, TimingsAccumulateAcrossCells) {
  SweepConfig config = tiny_sweep();
  SweepTimings timings;
  run_sweep(config, {}, &timings);
  EXPECT_EQ(timings.pairs_requested, 8u);  // 2 networks x 4 pairs
  EXPECT_GE(timings.construction_seconds, 0.0);
  EXPECT_GE(timings.oracle_seconds, 0.0);
  EXPECT_GE(timings.routing_seconds, 0.0);
  // Search counts are deterministic, so a second run must agree exactly.
  SweepTimings again;
  run_sweep(config, {}, &again);
  EXPECT_EQ(timings.bfs_searches, again.bfs_searches);
  EXPECT_EQ(timings.dijkstra_searches, again.dijkstra_searches);
  EXPECT_EQ(timings.pairs_routed, again.pairs_routed);
}

TEST(Experiment, SweepCellSeedMatchesSweepNetworks) {
  // Exposed so scenarios/tests can rebuild any sweep cell; must differ
  // across cells and models.
  SweepConfig ia = tiny_sweep();
  SweepConfig fa = tiny_sweep();
  fa.model = DeployModel::kForbiddenAreas;
  EXPECT_NE(sweep_cell_seed(ia, 400, 0), sweep_cell_seed(ia, 400, 1));
  EXPECT_NE(sweep_cell_seed(ia, 400, 0), sweep_cell_seed(ia, 450, 0));
  EXPECT_NE(sweep_cell_seed(ia, 400, 0), sweep_cell_seed(fa, 400, 0));
  EXPECT_EQ(sweep_cell_seed(ia, 400, 0), sweep_cell_seed(ia, 400, 0));
}

TEST(Experiment, CustomSchemeLabels) {
  SweepConfig config = tiny_sweep();
  config.schemes = {{Scheme::kSlgf2, {}, "full"},
                    {Scheme::kSlgf2, {false, true, true}, "no-either-hand"}};
  auto points = run_sweep(config);
  EXPECT_TRUE(points[0].by_scheme.contains("full"));
  EXPECT_TRUE(points[0].by_scheme.contains("no-either-hand"));
}

TEST(Experiment, AggregateRecordsMetrics) {
  RouteAggregate agg;
  PathResult ok;
  ok.status = RouteStatus::kDelivered;
  ok.path = {0, 1, 2};
  ok.hop_phases = {HopPhase::kGreedy, HopPhase::kPerimeter};
  ok.length = 25.0;
  ShortestPath oracle;
  oracle.path = {0, 1, 2};
  oracle.length = 20.0;
  agg.record(ok, &oracle, &oracle);
  PathResult fail;
  fail.status = RouteStatus::kTtlExpired;
  fail.path = {0, 1};
  agg.record(fail, nullptr, nullptr);
  EXPECT_EQ(agg.attempted, 2u);
  EXPECT_EQ(agg.delivered, 1u);
  EXPECT_DOUBLE_EQ(agg.delivery_ratio(), 0.5);
  EXPECT_DOUBLE_EQ(agg.hops.mean(), 2.0);
  EXPECT_DOUBLE_EQ(agg.max_hops(), 2.0);
  EXPECT_DOUBLE_EQ(agg.stretch_hops.mean(), 1.0);
  EXPECT_DOUBLE_EQ(agg.stretch_length.mean(), 1.25);
  EXPECT_DOUBLE_EQ(agg.perimeter_hops.mean(), 1.0);
}

TEST(Experiment, AggregateMerge) {
  RouteAggregate a, b;
  PathResult ok;
  ok.status = RouteStatus::kDelivered;
  ok.path = {0, 1};
  ok.hop_phases = {HopPhase::kGreedy};
  ok.length = 10.0;
  a.record(ok, nullptr, nullptr);
  b.record(ok, nullptr, nullptr);
  a.merge(b);
  EXPECT_EQ(a.attempted, 2u);
  EXPECT_EQ(a.delivered, 2u);
  EXPECT_EQ(a.hops.count(), 2u);
}

}  // namespace
}  // namespace spr
