#include "util/check.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "deploy/deployment.h"
#include "geometry/rect.h"
#include "graph/unit_disk.h"
#include "shard/sharded_network.h"
#include "util/task_pool.h"

namespace spr {
namespace {

TEST(Check, PassingCheckHasNoEffect) {
  ScopedCheckHandler guard(&throwing_check_handler);
  SPR_CHECK(1 + 1 == 2);
  SPR_CHECK(true, "context is never formatted on success");
  SPR_DCHECK(2 + 2 == 4, "nor for dchecks");
}

TEST(Check, FailureMessageCarriesExpressionAndContext) {
  ScopedCheckHandler guard(&throwing_check_handler);
  const int lhs = 3;
  try {
    SPR_CHECK(lhs == 4, "lhs=", lhs, " expected=", 4);
    FAIL() << "SPR_CHECK(false) did not reach the handler";
  } catch (const CheckError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("SPR_CHECK(lhs == 4) failed"), std::string::npos)
        << message;
    EXPECT_NE(message.find("lhs=3 expected=4"), std::string::npos) << message;
    EXPECT_NE(message.find("util_check_test.cpp"), std::string::npos)
        << message;
  }
}

TEST(Check, ScopedHandlerRestoresPrevious) {
  {
    ScopedCheckHandler guard(&throwing_check_handler);
    EXPECT_THROW(SPR_CHECK(false), CheckError);
  }
  // Cannot fail a check here (the default handler aborts); instead verify
  // that installing and removing reports the expected previous handlers.
  CheckHandler previous = set_check_handler(&throwing_check_handler);
  EXPECT_EQ(previous, nullptr);
  EXPECT_EQ(set_check_handler(nullptr), &throwing_check_handler);
}

TEST(Check, DcheckCompilesOutInReleaseAndFiresInDebug) {
  ScopedCheckHandler guard(&throwing_check_handler);
  if (kDchecksEnabled) {
    EXPECT_THROW(SPR_DCHECK(false, "must fire"), CheckError);
  } else {
    SPR_DCHECK(false, "must not evaluate");  // no-op by construction
    SUCCEED();
  }
}

// ---------------------------------------------------------------------------
// Negative tests: violated invariants in real call paths are caught.

std::vector<Vec2> three_positions() {
  return {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}};
}

TEST(CheckedInvariants, ShardedNetworkRejectsTileGridsPastTheCap) {
  ScopedCheckHandler guard(&throwing_check_handler);
  const Rect bounds = Rect::from_bounds({0.0, 0.0}, {3.0, 1.0});
  const UnitDiskGraph line(three_positions(), 1.5, bounds);
  // An empty row count, one tile past the 64-tile cap, and a grid whose
  // 2^32 tiles wrap to 0 in 32-bit arithmetic.
  for (const auto& [rows, cols] :
       {std::pair{0, 2}, std::pair{9, 8}, std::pair{65536, 65536}}) {
    EXPECT_THROW(ShardedNetwork(line, -1.0, ShardedNetwork::Config{rows, cols}),
                 CheckError)
        << rows << "x" << cols;
  }
  const ShardedNetwork widest(line, -1.0, ShardedNetwork::Config{8, 8});
  EXPECT_EQ(widest.tile_count(), ShardedNetwork::kMaxTiles);
}

TEST(CheckedInvariants, DeployRejectsNodeCountsPastTheCap) {
  ScopedCheckHandler guard(&throwing_check_handler);
  for (const int nodes : {-1, kMaxDeployNodes + 1, 2000000000}) {
    DeploymentConfig config;
    config.node_count = nodes;
    Rng rng(1);
    EXPECT_THROW(deploy(config, rng), CheckError) << nodes;
  }
}

TEST(CheckedInvariants, ZonesPatchRejectsUnmarkedChangedRowUnderDchecks) {
  if (!kDchecksEnabled) {
    GTEST_SKIP() << "SPR_DCHECK inactive in this build type";
  }
  ScopedCheckHandler guard(&throwing_check_handler);
  const Rect bounds = Rect::from_bounds({0.0, 0.0}, {3.0, 1.0});
  UnitDiskGraph line(three_positions(), 1.5, bounds);
  const QuadrantZones& zones = line.zones();
  UnitDiskGraph degraded = line.with_failures({2});
  // Node 1 lost its neighbor 2, but no row is marked stale: block-copying
  // row 1 would keep the dead member in its buckets.
  EXPECT_THROW(QuadrantZones::patch(degraded, line, zones,
                                    std::vector<bool>(3, false)),
               CheckError);
}

TEST(CheckedInvariants, SubmitToShutDownPoolIsCaught) {
  ScopedCheckHandler guard(&throwing_check_handler);
  TaskPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), CheckError);
}

// ---------------------------------------------------------------------------
// EdgeDiff normalization predicate (DCHECKed by with_moves producers).

TEST(EdgeDiffNormalized, AcceptsCanonicalDiff) {
  EdgeDiff diff;
  diff.added = {{0, 1}, {0, 2}, {1, 3}};
  diff.removed = {{0, 3}, {2, 3}};
  EXPECT_TRUE(edge_diff_normalized(diff));
  EXPECT_TRUE(edge_diff_normalized(EdgeDiff{}));
}

TEST(EdgeDiffNormalized, RejectsUnorderedPair) {
  EdgeDiff diff;
  diff.added = {{2, 1}};
  EXPECT_FALSE(edge_diff_normalized(diff));
  diff.added = {{1, 1}};  // self-loop
  EXPECT_FALSE(edge_diff_normalized(diff));
}

TEST(EdgeDiffNormalized, RejectsUnsortedOrDuplicateList) {
  EdgeDiff diff;
  diff.removed = {{1, 3}, {0, 2}};
  EXPECT_FALSE(edge_diff_normalized(diff));
  diff.removed = {{0, 2}, {0, 2}};
  EXPECT_FALSE(edge_diff_normalized(diff));
}

TEST(EdgeDiffNormalized, RejectsPairInBothLists) {
  EdgeDiff diff;
  diff.added = {{0, 1}, {2, 3}};
  diff.removed = {{2, 3}};
  EXPECT_FALSE(edge_diff_normalized(diff));
}

}  // namespace
}  // namespace spr
