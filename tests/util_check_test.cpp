#include "util/check.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "geometry/rect.h"
#include "graph/unit_disk.h"
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

TEST(CheckedInvariants, FromPartsRejectsOffsetCountMismatch) {
  // Always-on SPR_CHECK: fires in every build type.
  ScopedCheckHandler guard(&throwing_check_handler);
  const Rect bounds = Rect::from_bounds({0.0, 0.0}, {3.0, 1.0});
  std::vector<std::size_t> offsets{0, 0};  // needs 4 entries for 3 nodes
  EXPECT_THROW(UnitDiskGraph::from_parts(three_positions(), 1.5, bounds,
                                         std::vector<bool>(3, true),
                                         std::move(offsets), {}),
               CheckError);
}

TEST(CheckedInvariants, FromPartsRejectsDanglingAdjacencyTail) {
  ScopedCheckHandler guard(&throwing_check_handler);
  const Rect bounds = Rect::from_bounds({0.0, 0.0}, {3.0, 1.0});
  std::vector<std::size_t> offsets{0, 1, 2, 2};  // claims 2 entries...
  std::vector<NodeId> adjacency{1, 0, 2};        // ...but hands over 3
  EXPECT_THROW(UnitDiskGraph::from_parts(three_positions(), 1.5, bounds,
                                         std::vector<bool>(3, true),
                                         std::move(offsets),
                                         std::move(adjacency)),
               CheckError);
}

TEST(CheckedInvariants, FromPartsRejectsUnsortedRowUnderDchecks) {
  if (!kDchecksEnabled) {
    GTEST_SKIP() << "SPR_DCHECK inactive in this build type";
  }
  ScopedCheckHandler guard(&throwing_check_handler);
  const Rect bounds = Rect::from_bounds({0.0, 0.0}, {3.0, 1.0});
  // Node 1's row lists {2, 0} — violates the sorted-row CSR contract the
  // quadrant bucketing and tandem merges silently rely on.
  std::vector<std::size_t> offsets{0, 1, 3, 4};
  std::vector<NodeId> adjacency{1, 2, 0, 1};
  EXPECT_THROW(UnitDiskGraph::from_parts(three_positions(), 1.5, bounds,
                                         std::vector<bool>(3, true),
                                         std::move(offsets),
                                         std::move(adjacency)),
               CheckError);
}

TEST(CheckedInvariants, FromPartsRejectsOutOfRangeNeighborUnderDchecks) {
  if (!kDchecksEnabled) {
    GTEST_SKIP() << "SPR_DCHECK inactive in this build type";
  }
  ScopedCheckHandler guard(&throwing_check_handler);
  const Rect bounds = Rect::from_bounds({0.0, 0.0}, {3.0, 1.0});
  std::vector<std::size_t> offsets{0, 1, 1, 1};
  std::vector<NodeId> adjacency{7};  // node 7 of a 3-node graph
  EXPECT_THROW(UnitDiskGraph::from_parts(three_positions(), 1.5, bounds,
                                         std::vector<bool>(3, true),
                                         std::move(offsets),
                                         std::move(adjacency)),
               CheckError);
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
