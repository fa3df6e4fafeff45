#include "geometry/segment.h"

#include <gtest/gtest.h>

namespace spr {
namespace {

TEST(Segment, LengthAndDirection) {
  Segment s{{0.0, 0.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(s.length(), 5.0);
  EXPECT_NEAR(s.direction().x, 0.6, 1e-12);
  EXPECT_NEAR(s.direction().y, 0.8, 1e-12);
  EXPECT_EQ(s.at(0.5), Vec2(1.5, 2.0));
}

TEST(Segment, OnSegment) {
  Segment s{{0.0, 0.0}, {2.0, 2.0}};
  EXPECT_TRUE(on_segment(s, {1.0, 1.0}));
  EXPECT_TRUE(on_segment(s, {0.0, 0.0}));
  EXPECT_FALSE(on_segment(s, {3.0, 3.0}));  // beyond endpoint
  EXPECT_FALSE(on_segment(s, {1.0, 1.2}));
}

TEST(Segment, ProperCrossing) {
  Segment a{{0.0, 0.0}, {2.0, 2.0}};
  Segment b{{0.0, 2.0}, {2.0, 0.0}};
  EXPECT_TRUE(segments_intersect(a, b));
  EXPECT_TRUE(segments_cross_properly(a, b));
}

TEST(Segment, SharedEndpointIsNotProperCrossing) {
  Segment a{{0.0, 0.0}, {2.0, 2.0}};
  Segment b{{2.0, 2.0}, {3.0, 0.0}};
  EXPECT_TRUE(segments_intersect(a, b));
  EXPECT_FALSE(segments_cross_properly(a, b));
}

TEST(Segment, TTouchIsNotProper) {
  // b's endpoint lies in a's interior: improper.
  Segment a{{0.0, 0.0}, {4.0, 0.0}};
  Segment b{{2.0, 0.0}, {2.0, 3.0}};
  EXPECT_TRUE(segments_intersect(a, b));
  EXPECT_FALSE(segments_cross_properly(a, b));
}

TEST(Segment, DisjointSegments) {
  Segment a{{0.0, 0.0}, {1.0, 0.0}};
  Segment b{{2.0, 1.0}, {3.0, 1.0}};
  EXPECT_FALSE(segments_intersect(a, b));
  EXPECT_FALSE(segments_cross_properly(a, b));
}

TEST(Segment, CollinearOverlap) {
  Segment a{{0.0, 0.0}, {2.0, 0.0}};
  Segment b{{1.0, 0.0}, {3.0, 0.0}};
  EXPECT_TRUE(segments_intersect(a, b));
  EXPECT_FALSE(segments_cross_properly(a, b));
}

TEST(Segment, CollinearDisjoint) {
  Segment a{{0.0, 0.0}, {1.0, 0.0}};
  Segment b{{2.0, 0.0}, {3.0, 0.0}};
  EXPECT_FALSE(segments_intersect(a, b));
}

TEST(Segment, SegmentIntersectionPoint) {
  auto p = segment_intersection({{0.0, 0.0}, {2.0, 0.0}}, {{1.0, -1.0}, {1.0, 1.0}});
  ASSERT_TRUE(p.has_value());
  EXPECT_NEAR(p->x, 1.0, 1e-12);
  EXPECT_NEAR(p->y, 0.0, 1e-12);
}

TEST(Segment, SegmentIntersectionMissing) {
  EXPECT_FALSE(segment_intersection({{0.0, 0.0}, {1.0, 0.0}},
                                    {{0.0, 1.0}, {1.0, 1.0}})
                   .has_value());
}

TEST(Segment, PointSegmentDistance) {
  Segment s{{0.0, 0.0}, {2.0, 0.0}};
  EXPECT_DOUBLE_EQ(point_segment_distance({1.0, 1.0}, s), 1.0);   // above middle
  EXPECT_DOUBLE_EQ(point_segment_distance({-3.0, 4.0}, s), 5.0);  // off the end
  EXPECT_DOUBLE_EQ(point_segment_distance({1.0, 0.0}, s), 0.0);   // on it
}

TEST(Segment, DegenerateSegmentDistance) {
  Segment s{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_DOUBLE_EQ(point_segment_distance({4.0, 5.0}, s), 5.0);
}

}  // namespace
}  // namespace spr
