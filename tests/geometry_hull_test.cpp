#include "geometry/hull.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

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

/// The monotone chain over a std::sort of the points: the oracle of the
/// hull's bucketed sort, which must give the same sequence up to the order
/// of equal points and so the same hull.
std::vector<Vec2> std_sort_hull(std::vector<Vec2> points) {
  std::sort(points.begin(), points.end(), [](Vec2 a, Vec2 b) {
    return a.x < b.x || (a.x == b.x && a.y < b.y);
  });
  points.erase(std::unique(points.begin(), points.end()), points.end());
  const std::size_t n = points.size();
  if (n < 3) return points;
  std::vector<Vec2> hull(2 * n);
  std::size_t k = 0;
  for (std::size_t i = 0; i < n; ++i) {
    while (k >= 2 && orient(hull[k - 2], hull[k - 1], points[i]) <= 0.0) --k;
    hull[k++] = points[i];
  }
  for (std::size_t i = n - 1, t = k + 1; i-- > 0;) {
    while (k >= t && orient(hull[k - 2], hull[k - 1], points[i]) <= 0.0) --k;
    hull[k++] = points[i];
  }
  hull.resize(k - 1);
  return hull;
}

/// Uniform, clustered (one far outlier empties almost every bucket),
/// duplicated, lattice (many equal x), collinear and far-offset inputs.
TEST(Hull, BucketSortMatchesStdSortChain) {
  Rng rng(17);
  std::vector<std::vector<Vec2>> inputs;
  for (const int n : {3, 10, 1000, 5000}) {
    std::vector<Vec2> pts;
    for (int i = 0; i < n; ++i) {
      pts.push_back({rng.uniform(-50.0, 50.0), rng.uniform(0.0, 100.0)});
    }
    inputs.push_back(pts);
    std::vector<Vec2> clustered;
    for (const Vec2 p : pts) clustered.push_back(p * 1e-9);
    clustered.push_back({1e6, 0.5});
    inputs.push_back(clustered);
    std::vector<Vec2> twice = pts;
    twice.insert(twice.end(), pts.begin(), pts.end());
    inputs.push_back(twice);
    std::vector<Vec2> far;
    for (const Vec2 p : pts) far.push_back(p + Vec2{1e9, -3e9});
    inputs.push_back(far);
  }
  std::vector<Vec2> lattice, line;
  for (int i = 0; i < 30; ++i) {
    line.push_back({0.5 * i, 0.25 * i});
    for (int j = 0; j < 30; ++j) lattice.push_back({0.7 * (i % 7), 0.3 * j});
  }
  inputs.push_back(lattice);
  inputs.push_back(line);
  inputs.push_back({{0.0, 1.0}, {-0.0, 1.0}, {0.0, -1.0}, {2.0, 0.0}});
  for (std::size_t k = 0; k < inputs.size(); ++k) {
    EXPECT_EQ(convex_hull(inputs[k]), std_sort_hull(inputs[k]))
        << "input " << k;
  }
}

}  // namespace
}  // namespace spr
