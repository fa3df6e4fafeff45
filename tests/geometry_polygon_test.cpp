#include "geometry/polygon.h"

#include <gtest/gtest.h>

namespace spr {
namespace {

Polygon unit_square() {
  return Polygon({{0.0, 0.0}, {1.0, 0.0}, {1.0, 1.0}, {0.0, 1.0}});
}

TEST(Polygon, ContainsInterior) {
  Polygon p = unit_square();
  EXPECT_TRUE(p.contains({0.5, 0.5}));
  EXPECT_FALSE(p.contains({1.5, 0.5}));
  EXPECT_FALSE(p.contains({0.5, -0.5}));
}

TEST(Polygon, BoundaryCountsAsInside) {
  Polygon p = unit_square();
  EXPECT_TRUE(p.contains({0.0, 0.5}));
  EXPECT_TRUE(p.contains({1.0, 1.0}));
  EXPECT_TRUE(p.contains({0.5, 0.0}));
}

TEST(Polygon, SignedAreaOrientation) {
  EXPECT_DOUBLE_EQ(unit_square().signed_area(), 1.0);  // CCW positive
  Polygon cw({{0.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}, {1.0, 0.0}});
  EXPECT_DOUBLE_EQ(cw.signed_area(), -1.0);
  EXPECT_DOUBLE_EQ(cw.area(), 1.0);
}

TEST(Polygon, Perimeter) {
  EXPECT_DOUBLE_EQ(unit_square().perimeter(), 4.0);
}

TEST(Polygon, ConcaveContainment) {
  // L-shape: the notch must be outside.
  Polygon l({{0.0, 0.0}, {2.0, 0.0}, {2.0, 1.0}, {1.0, 1.0},
             {1.0, 2.0}, {0.0, 2.0}});
  EXPECT_TRUE(l.contains({0.5, 1.5}));
  EXPECT_TRUE(l.contains({1.5, 0.5}));
  EXPECT_FALSE(l.contains({1.5, 1.5}));  // the notch
  EXPECT_DOUBLE_EQ(l.area(), 3.0);
}

TEST(Polygon, FromRect) {
  Polygon p = Polygon::from_rect(Rect::from_corners({1.0, 2.0}, {3.0, 5.0}));
  EXPECT_EQ(p.size(), 4u);
  EXPECT_DOUBLE_EQ(p.area(), 6.0);
  EXPECT_TRUE(p.contains({2.0, 3.0}));
}

TEST(Polygon, RegularApproximatesDisc) {
  Polygon p = Polygon::regular({5.0, 5.0}, 2.0, 64);
  EXPECT_TRUE(p.contains({5.0, 5.0}));
  EXPECT_TRUE(p.contains({6.5, 5.0}));
  EXPECT_FALSE(p.contains({7.5, 5.0}));
  EXPECT_NEAR(p.area(), 3.14159265 * 4.0, 0.1);
}

TEST(Polygon, BoundingBox) {
  Polygon p({{1.0, 2.0}, {5.0, -1.0}, {3.0, 7.0}});
  Rect box = p.bounding_box();
  EXPECT_EQ(box.lo(), Vec2(1.0, -1.0));
  EXPECT_EQ(box.hi(), Vec2(5.0, 7.0));
}

TEST(Polygon, EmptyAndDegenerate) {
  Polygon empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.contains({0.0, 0.0}));
  EXPECT_DOUBLE_EQ(empty.area(), 0.0);
  Polygon two({{0.0, 0.0}, {1.0, 0.0}});
  EXPECT_FALSE(two.contains({0.5, 0.0}));
  EXPECT_DOUBLE_EQ(two.area(), 0.0);
}

}  // namespace
}  // namespace spr
