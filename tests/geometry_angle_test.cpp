#include "geometry/angle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace spr {
namespace {

TEST(Angle, BearingCardinalDirections) {
  EXPECT_NEAR(bearing({1.0, 0.0}), 0.0, 1e-12);
  EXPECT_NEAR(bearing({0.0, 1.0}), kPi / 2, 1e-12);
  EXPECT_NEAR(bearing({-1.0, 0.0}), kPi, 1e-12);
  EXPECT_NEAR(bearing({0.0, -1.0}), 3 * kPi / 2, 1e-12);
}

TEST(Angle, BearingFromTo) {
  EXPECT_NEAR(bearing({1.0, 1.0}, {2.0, 2.0}), kPi / 4, 1e-12);
}

TEST(Angle, NormalizeIntoRange) {
  EXPECT_NEAR(normalize_angle(kTwoPi + 0.5), 0.5, 1e-12);
  EXPECT_NEAR(normalize_angle(-0.5), kTwoPi - 0.5, 1e-12);
  EXPECT_NEAR(normalize_angle(0.0), 0.0, 1e-12);
  EXPECT_NEAR(normalize_angle(-kTwoPi), 0.0, 1e-12);
}

TEST(Angle, CcwDelta) {
  EXPECT_NEAR(ccw_delta(0.0, kPi / 2), kPi / 2, 1e-12);
  EXPECT_NEAR(ccw_delta(kPi / 2, 0.0), 3 * kPi / 2, 1e-12);
  EXPECT_NEAR(ccw_delta(1.0, 1.0), 0.0, 1e-12);
}

TEST(Angle, CwDelta) {
  EXPECT_NEAR(cw_delta(kPi / 2, 0.0), kPi / 2, 1e-12);
  EXPECT_NEAR(cw_delta(0.0, kPi / 2), 3 * kPi / 2, 1e-12);
}

TEST(Angle, CcwPlusCwIsFullTurn) {
  for (double a : {0.1, 1.0, 2.5, 4.0}) {
    for (double b : {0.2, 1.5, 3.0, 5.5}) {
      if (a == b) continue;
      EXPECT_NEAR(ccw_delta(a, b) + cw_delta(a, b), kTwoPi, 1e-9);
    }
  }
}

TEST(CcwScan, OrdersBySweep) {
  CcwScan scan({0.0, 0.0}, 0.0);  // start at +x
  std::vector<Vec2> pts = {{0.0, 1.0}, {1.0, 0.1}, {-1.0, 0.5}, {0.5, -1.0}};
  std::sort(pts.begin(), pts.end(), scan);
  // Expected order of bearings: ~0.1 rad, ~90deg, ~153deg, ~296deg.
  EXPECT_EQ(pts[0], Vec2(1.0, 0.1));
  EXPECT_EQ(pts[1], Vec2(0.0, 1.0));
  EXPECT_EQ(pts[2], Vec2(-1.0, 0.5));
  EXPECT_EQ(pts[3], Vec2(0.5, -1.0));
}

TEST(CcwScan, TieBrokenByDistance) {
  CcwScan scan({0.0, 0.0}, 0.0);
  EXPECT_TRUE(scan({1.0, 1.0}, {2.0, 2.0}));   // same bearing, nearer first
  EXPECT_FALSE(scan({2.0, 2.0}, {1.0, 1.0}));
}

TEST(CcwScan, SweepToExactStartIsZero) {
  CcwScan scan({0.0, 0.0}, kPi / 2);
  EXPECT_NEAR(scan.sweep_to({0.0, 5.0}), 0.0, 1e-12);
}

}  // namespace
}  // namespace spr
