#include "safety/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/network.h"
#include "mobility/waypoint.h"
#include "shard/sharded_network.h"
#include "test_helpers.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace spr {
namespace {

std::vector<Vec2> jitter_positions(const std::vector<Vec2>& positions,
                                   const Rect& field, double magnitude,
                                   Rng& rng) {
  std::vector<Vec2> moved = positions;
  for (Vec2& p : moved) {
    p.x = std::clamp(p.x + rng.uniform(-magnitude, magnitude), field.lo().x,
                     field.hi().x);
    p.y = std::clamp(p.y + rng.uniform(-magnitude, magnitude), field.lo().y,
                     field.hi().y);
  }
  return moved;
}

/// The bidirectional updater must land on exactly the fixpoint a
/// from-scratch compute_safety produces on the moved graph — statuses AND
/// anchors (SafetyInfo equality covers both) — for random whole-field
/// motion of varying magnitude.
TEST(IncrementalMoves, MatchesFullRecomputeOnRandomMotion) {
  for (std::uint64_t seed : test::property_seeds()) {
    for (double magnitude : {2.0, 12.0, 40.0}) {
      Network net =
          test::random_network(350, seed, DeployModel::kForbiddenAreas);
      net.force(Network::kNeedsSafety);
      Rng rng(seed ^ 0x700e);
      std::vector<Vec2> moved = jitter_positions(
          net.graph().positions(), net.deployment().field, magnitude, rng);

      IncrementalStats stats;
      Network after = net.with_moves(moved, &stats);
      ASSERT_TRUE(after.has_safety());  // derived, not rebuilt lazily
      SafetyInfo from_scratch =
          compute_safety(after.graph(), after.interest_area());
      EXPECT_EQ(after.safety(), from_scratch)
          << "seed " << seed << " magnitude " << magnitude
          << ": incremental fixpoint diverged from compute_safety";
    }
  }
}

/// Localized motion — only every fourth node drifts, which keeps
/// with_moves on its relocate-and-patch branch and leaves most nodes
/// untouched for the updater's pre-pass — must still land exactly on the
/// from-scratch fixpoint, including across chained epochs.
TEST(IncrementalMoves, LocalizedMotionMatchesFullRecompute) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net =
        test::random_network(350, seed, DeployModel::kForbiddenAreas);
    net.force(Network::kNeedsSafety);
    Rng rng(seed ^ 0x10ca1);
    for (int epoch = 0; epoch < 3; ++epoch) {
      std::vector<Vec2> moved = net.graph().positions();
      for (std::size_t i = 0; i < moved.size(); i += 4) {
        moved[i].x = std::clamp(moved[i].x + rng.uniform(-12.0, 12.0),
                                net.deployment().field.lo().x,
                                net.deployment().field.hi().x);
        moved[i].y = std::clamp(moved[i].y + rng.uniform(-12.0, 12.0),
                                net.deployment().field.lo().y,
                                net.deployment().field.hi().y);
      }
      IncrementalStats stats;
      Network after = net.with_moves(moved, &stats);
      SafetyInfo from_scratch =
          compute_safety(after.graph(), after.interest_area());
      ASSERT_EQ(after.safety(), from_scratch)
          << "seed " << seed << " epoch " << epoch;
      net = std::move(after);
    }
  }
}

/// Motion that *fills* a hole must promote labels back to safe: deploy with
/// forbidden areas (big holes), then move every node toward the field
/// center. The updater must both promote and match the fresh fixpoint.
TEST(IncrementalMoves, FillingAHolePromotesLabels) {
  Network net = test::random_network(500, 97, DeployModel::kForbiddenAreas);
  net.force(Network::kNeedsSafety);
  ASSERT_GT(net.safety().unsafe_node_count(), 0u);

  Vec2 center = net.deployment().field.center();
  std::vector<Vec2> moved = net.graph().positions();
  for (Vec2& p : moved) p += (center - p) * 0.45;  // contract toward center

  IncrementalStats stats;
  Network after = net.with_moves(moved, &stats);
  SafetyInfo from_scratch =
      compute_safety(after.graph(), after.interest_area());
  EXPECT_EQ(after.safety(), from_scratch);
  EXPECT_GT(stats.promotions, 0u)
      << "contracting into the holes must re-raise labels";
}

/// No motion is a no-op: zero seeds, zero promotions/demotions, and the
/// labeling object is unchanged.
TEST(IncrementalMoves, NoMotionIsNoOp) {
  Network net = test::random_network(300, 41, DeployModel::kForbiddenAreas);
  net.force(Network::kNeedsSafety);
  IncrementalStats stats;
  Network same = net.with_moves(net.graph().positions(), &stats);
  EXPECT_EQ(stats.seeds, 0u);
  EXPECT_EQ(stats.flips, 0u);
  EXPECT_EQ(stats.promotions, 0u);
  EXPECT_EQ(same.safety(), net.safety());
}

/// A non-finite position is rejected where it enters, before any labeling:
/// let through, a NaN x on node 17 of this network gives the moved copy an
/// anchor that a from-scratch build on the same positions lacks, and
/// incremental == from-scratch fails silently. The from-scratch build
/// rejects it too, and with_moves rejects a position list of the wrong
/// size.
TEST(IncrementalMoves, NonFinitePositionsAreRejected) {
  ScopedCheckHandler guard(throwing_check_handler);
  Network net = test::random_network(600, 3);
  net.force(Network::kNeedsSafety);
  const UnitDiskGraph& g = net.graph();
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (double Vec2::*axis : {&Vec2::x, &Vec2::y}) {
      std::vector<Vec2> moved = g.positions();
      moved[17].*axis = bad;
      std::optional<Network> after;
      EXPECT_THROW(after.emplace(net.with_moves(moved)), CheckError)
          << "coordinate " << bad;
      EXPECT_FALSE(after.has_value());
      EXPECT_THROW(UnitDiskGraph(moved, g.range(), g.bounds()), CheckError)
          << "coordinate " << bad;
    }
  }
  std::vector<Vec2> short_positions = g.positions();
  short_positions.pop_back();
  EXPECT_THROW(net.with_moves(short_positions), CheckError);
}

/// Without a built labeling, with_moves leaves safety lazy (and the lazily
/// built labeling is the moved graph's own fixpoint).
TEST(IncrementalMoves, LazySafetyStaysLazyAndCorrect) {
  Network net = test::random_network(300, 53, DeployModel::kForbiddenAreas);
  ASSERT_FALSE(net.has_safety());
  Rng rng(7);
  std::vector<Vec2> moved = jitter_positions(
      net.graph().positions(), net.deployment().field, 15.0, rng);
  IncrementalStats stats;
  stats.seeds = 999;  // must be zeroed: nothing incremental happened
  Network after = net.with_moves(moved, &stats);
  EXPECT_FALSE(after.has_safety());
  EXPECT_EQ(stats.seeds, 0u);
  SafetyInfo from_scratch =
      compute_safety(after.graph(), after.interest_area());
  EXPECT_EQ(after.safety(), from_scratch);
}

/// The acceptance criterion: a staged-mobility run — waypoint re-pin epochs
/// *interleaved with failure waves* — where the incrementally maintained
/// labeling equals a from-scratch compute_safety at every stage, and the
/// diff/edge-delta plumbing stays consistent throughout the chain.
TEST(IncrementalMoves, StagedMobilityWithFailureWavesMatchesAtEveryEpoch) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net =
        test::random_network(450, seed, DeployModel::kForbiddenAreas);
    net.force(Network::kNeedsSafety);
    WaypointConfig wc;
    wc.field = net.deployment().field;
    wc.max_speed_mps = 3.0;
    WaypointModel model(net.deployment().positions, wc, Rng(seed ^ 0xabc));
    Rng rng(seed ^ 0xfa11);

    for (int epoch = 0; epoch < 4; ++epoch) {
      // Move epoch.
      model.advance(10.0);
      IncrementalStats move_stats;
      EdgeDiff diff;
      Network moved = net.with_moves(model.positions(), &move_stats, &diff);
      ASSERT_TRUE(moved.has_safety());
      SafetyInfo fresh_moved =
          compute_safety(moved.graph(), moved.interest_area());
      ASSERT_EQ(moved.safety(), fresh_moved)
          << "seed " << seed << " move epoch " << epoch;

      // Interleaved failure wave on the moved snapshot.
      std::vector<NodeId> casualties;
      for (NodeId u = static_cast<NodeId>(epoch * 13 + 5);
           u < moved.graph().size() && casualties.size() < 12; u += 29) {
        if (moved.graph().alive(u)) casualties.push_back(u);
      }
      Network degraded = moved.with_failures(casualties);
      SafetyInfo fresh_degraded =
          compute_safety(degraded.graph(), degraded.interest_area());
      ASSERT_EQ(degraded.safety(), fresh_degraded)
          << "seed " << seed << " failure epoch " << epoch;
      for (NodeId u : casualties) {
        ASSERT_FALSE(degraded.graph().alive(u));
      }
      net = std::move(degraded);
    }
  }
}

/// Promotions and demotions are both counted, and the counters line up
/// with the observable label delta.
TEST(IncrementalMoves, StatsCountLabelChanges) {
  Network net = test::random_network(400, 19, DeployModel::kForbiddenAreas);
  net.force(Network::kNeedsSafety);
  Rng rng(0x57a75);
  std::vector<Vec2> moved = jitter_positions(
      net.graph().positions(), net.deployment().field, 35.0, rng);
  SafetyInfo before_info = net.safety();
  IncrementalStats stats;
  Network after = net.with_moves(moved, &stats);

  // Every status that differs between the old and new fixpoint was either
  // promoted or demoted at least once (a pair can also be raised and then
  // re-demoted, so the counters bound the delta from above).
  std::size_t went_safe = 0, went_unsafe = 0;
  for (NodeId u = 0; u < after.graph().size(); ++u) {
    if (!after.graph().alive(u)) continue;
    for (ZoneType t : kAllZoneTypes) {
      bool was = before_info.is_safe(u, t);
      bool is = after.safety().is_safe(u, t);
      if (!was && is) ++went_safe;
      if (was && !is) ++went_unsafe;
    }
  }
  EXPECT_LE(went_safe, stats.promotions);
  EXPECT_LE(went_unsafe, stats.flips);
  EXPECT_GT(stats.seeds, 0u);
}

/// The field workload's shape at 4000 nodes: an FA deployment on a field
/// scaled to keep the 600-node density, one 0.1% failure wave, then a
/// +-4 m jitter epoch of every node.
struct PinnedField {
  Deployment deployment;
  std::vector<NodeId> wave;
  std::vector<Vec2> epoch;
};

PinnedField pinned_field() {
  constexpr int kNodes = 4000;
  DeploymentConfig config;
  config.node_count = kNodes;
  config.model = DeployModel::kForbiddenAreas;
  const double scale = std::sqrt(kNodes / 600.0);
  config.field = Rect::from_bounds({0.0, 0.0}, {200.0 * scale, 200.0 * scale});
  config.min_forbidden_extent *= scale;
  config.max_forbidden_extent *= scale;
  config.forbidden_margin *= scale;
  PinnedField field;
  Rng rng(2009);
  field.deployment = deploy(config, rng);
  std::vector<NodeId> order(kNodes);
  for (NodeId u = 0; u < kNodes; ++u) order[u] = u;
  for (std::size_t k = 0; k < kNodes / 1000; ++k) {
    const std::size_t left = order.size() - k;
    const std::size_t pick = rng.next_below(left);
    field.wave.push_back(order[pick]);
    std::swap(order[pick], order[left - 1]);
  }
  field.epoch = jitter_positions(field.deployment.positions,
                                 field.deployment.field, 4.0, rng);
  return field;
}

void expect_counters(const IncrementalStats& got, const IncrementalStats& want,
                     const std::string& where) {
  EXPECT_EQ(got.seeds, want.seeds) << where;
  EXPECT_EQ(got.reevaluations, want.reevaluations) << where;
  EXPECT_EQ(got.flips, want.flips) << where;
  EXPECT_EQ(got.promotions, want.promotions) << where;
  EXPECT_EQ(got.anchor_recomputes, want.anchor_recomputes) << where;
  EXPECT_EQ(got.arena_high_water, want.arena_high_water) << where;
}

void expect_shard_counters(const ShardStats& got, const ShardStats& want,
                           const std::string& where) {
  EXPECT_EQ(got.exchange_rounds, want.exchange_rounds) << where;
  EXPECT_EQ(got.halo_demotions, want.halo_demotions) << where;
  expect_counters(got.incremental, want.incremental, where);
}

/// Every work counter of both updaters, on the monolithic path and through
/// a 2x2 ShardedNetwork, is pinned to recorded values, and the labelings
/// must still equal compute_safety. A changed counter means the updaters
/// now do different work even though the labeling stays right — which no
/// equality test can see. The pool changes the monolithic counters (large
/// frontiers drain in synchronous rounds), not the shard's.
TEST(IncrementalMoves, FieldCountersArePinned) {
  const PinnedField field = pinned_field();
  // {seeds, reevaluations, flips, promotions, anchor_recomputes,
  //  arena_high_water} for the wave and the epoch, serial then pooled.
  const IncrementalStats wave[2] = {{472, 387, 0, 0, 2523, 148520},
                                    {472, 387, 0, 0, 2523, 148520}};
  const IncrementalStats epoch[2] = {{13249, 15668, 1700, 2521, 1702, 283024},
                                     {13249, 15964, 1700, 2521, 1702, 363024}};
  // {exchange_rounds, halo_demotions, kernel}.
  const ShardStats shard_wave{1, 0, {472, 387, 0, 0, 2523, 148520}};
  const ShardStats shard_epoch{4, 336,
                               {13249, 15625, 1700, 2521, 1702, 148520}};

  TaskPool pool(4);
  for (int pooled = 0; pooled < 2; ++pooled) {
    TaskPool* build_pool = pooled != 0 ? &pool : nullptr;
    const std::string where = pooled != 0 ? "pooled" : "serial";
    Network net(field.deployment, -1.0, build_pool);
    net.force(Network::kNeedsSafety);
    IncrementalStats wave_stats, epoch_stats;
    Network degraded = net.with_failures(field.wave, &wave_stats);
    Network moved = degraded.with_moves(field.epoch, &epoch_stats);
    expect_counters(wave_stats, wave[pooled], where + " wave");
    expect_counters(epoch_stats, epoch[pooled], where + " epoch");
    EXPECT_EQ(degraded.safety(),
              compute_safety(degraded.graph(),
                             InterestArea(degraded.graph(), net.edge_band())))
        << where;
    EXPECT_EQ(moved.safety(),
              compute_safety(moved.graph(),
                             InterestArea(moved.graph(), net.edge_band())))
        << where;

    ShardedNetwork::Config config;
    config.tile_rows = 2;
    config.tile_cols = 2;
    ShardedNetwork tiles(net.graph(), -1.0, config, build_pool);
    tiles.safety();
    tiles.apply_failures(field.wave);
    expect_shard_counters(tiles.last_stats(), shard_wave, where + " shard wave");
    EXPECT_EQ(tiles.safety(), degraded.safety()) << where;
    tiles.apply_moves(field.epoch);
    expect_shard_counters(tiles.last_stats(), shard_epoch,
                          where + " shard epoch");
    EXPECT_EQ(tiles.safety(), moved.safety()) << where;
  }
}

}  // namespace
}  // namespace spr
