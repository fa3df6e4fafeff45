#include "geometry/hull.h"

#include <gtest/gtest.h>

#include "deploy/rng.h"
#include "geometry/polygon.h"
#include "geometry/vec2.h"

namespace spr {
namespace {

TEST(Hull, SquareWithInteriorPoint) {
  std::vector<Vec2> pts = {{0.0, 0.0}, {2.0, 0.0}, {2.0, 2.0}, {0.0, 2.0},
                           {1.0, 1.0}};
  auto hull = convex_hull(pts);
  EXPECT_EQ(hull.size(), 4u);
  for (Vec2 v : hull) EXPECT_NE(v, Vec2(1.0, 1.0));
}

TEST(Hull, CollinearPointsDropped) {
  std::vector<Vec2> pts = {{0.0, 0.0}, {1.0, 0.0}, {2.0, 0.0}, {2.0, 2.0},
                           {0.0, 2.0}};
  auto hull = convex_hull(pts);
  EXPECT_EQ(hull.size(), 4u);
}

TEST(Hull, CcwOrientation) {
  auto hull = convex_hull({{0.0, 0.0}, {4.0, 0.0}, {4.0, 3.0}, {0.0, 3.0},
                           {2.0, 1.0}});
  ASSERT_GE(hull.size(), 3u);
  double area2 = 0.0;
  for (std::size_t i = 0, j = hull.size() - 1; i < hull.size(); j = i++) {
    area2 += hull[j].cross(hull[i]);
  }
  EXPECT_GT(area2, 0.0);  // CCW
}

TEST(Hull, DegenerateInputs) {
  EXPECT_TRUE(convex_hull({}).empty());
  EXPECT_EQ(convex_hull({{1.0, 1.0}}).size(), 1u);
  EXPECT_EQ(convex_hull({{1.0, 1.0}, {2.0, 2.0}}).size(), 2u);
  EXPECT_EQ(convex_hull({{1.0, 1.0}, {1.0, 1.0}}).size(), 1u);  // duplicates
}

TEST(Hull, AllPointsInsideHullPolygon) {
  Rng rng(42);
  std::vector<Vec2> pts;
  for (int i = 0; i < 200; ++i) {
    pts.push_back({rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)});
  }
  Polygon hull(convex_hull(pts));
  for (Vec2 p : pts) EXPECT_TRUE(hull.contains(p));
}

TEST(Hull, DistanceToBoundary) {
  auto hull = convex_hull({{0.0, 0.0}, {4.0, 0.0}, {4.0, 4.0}, {0.0, 4.0}});
  EXPECT_DOUBLE_EQ(distance_to_hull_boundary(hull, {2.0, 2.0}), 2.0);  // center
  EXPECT_DOUBLE_EQ(distance_to_hull_boundary(hull, {2.0, 0.0}), 0.0);  // on edge
  EXPECT_DOUBLE_EQ(distance_to_hull_boundary(hull, {2.0, -3.0}), 3.0); // outside
  EXPECT_DOUBLE_EQ(distance_to_hull_boundary(hull, {0.0, 0.0}), 0.0);  // vertex
}

TEST(Hull, DistanceDegenerate) {
  EXPECT_DOUBLE_EQ(distance_to_hull_boundary({{1.0, 1.0}}, {4.0, 5.0}), 5.0);
}

}  // namespace
}  // namespace spr
