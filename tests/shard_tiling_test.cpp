#include "shard/tiling.h"

#include <gtest/gtest.h>

#include "deploy/rng.h"

namespace spr {
namespace {

TEST(Tiling, TileRectsPartitionTheField) {
  const Rect field = Rect::from_bounds({10.0, -5.0}, {210.0, 95.0});
  const Tiling tiling(field, 3, 4);
  ASSERT_EQ(tiling.tile_count(), 12);
  double area = 0.0;
  for (int t = 0; t < tiling.tile_count(); ++t) {
    const Rect r = tiling.tile_rect(t);
    area += r.width() * r.height();
    EXPECT_GE(r.lo().x, field.lo().x);
    EXPECT_GE(r.lo().y, field.lo().y);
    EXPECT_LE(r.hi().x, field.hi().x);
    EXPECT_LE(r.hi().y, field.hi().y);
  }
  EXPECT_NEAR(area, field.width() * field.height(), 1e-6);
  // The last row/column absorbs the remainder exactly.
  EXPECT_DOUBLE_EQ(tiling.tile_rect(11).hi().x, field.hi().x);
  EXPECT_DOUBLE_EQ(tiling.tile_rect(11).hi().y, field.hi().y);
}

TEST(Tiling, OwnerTileContainsThePoint) {
  const Rect field = Rect::from_bounds({0.0, 0.0}, {200.0, 200.0});
  const Tiling tiling(field, 4, 4);
  Rng rng(17);
  for (int i = 0; i < 500; ++i) {
    const Vec2 p{rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)};
    const int owner = tiling.owner_tile(p);
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, tiling.tile_count());
    EXPECT_LE(tiling.tile_rect(owner).distance_to(p), 1e-12)
        << "(" << p.x << ", " << p.y << ")";
  }
  // Points outside the field snap to the nearest border tile.
  EXPECT_EQ(tiling.owner_tile({-5.0, -5.0}), 0);
  EXPECT_EQ(tiling.owner_tile({205.0, 205.0}), tiling.tile_count() - 1);
}

TEST(Tiling, SingleTileOwnsEverything) {
  const Tiling tiling(Rect::from_bounds({0.0, 0.0}, {50.0, 50.0}), 1, 1);
  EXPECT_EQ(tiling.tile_count(), 1);
  EXPECT_EQ(tiling.owner_tile({25.0, 25.0}), 0);
  EXPECT_EQ(tiling.owner_tile({-100.0, 400.0}), 0);
}

/// Finite coordinates far outside the field still snap to a border tile:
/// the index is clamped before it is narrowed to `int`.
TEST(Tiling, FarOutsidePointsSnapToBorderTiles) {
  const Tiling tiling(Rect::from_bounds({0.0, 0.0}, {100.0, 100.0}), 2, 3);
  EXPECT_EQ(tiling.owner_tile({1e300, 1e300}), tiling.tile_count() - 1);
  EXPECT_EQ(tiling.owner_tile({-1e300, -1e300}), 0);
  EXPECT_EQ(tiling.owner_tile({1e300, -1e300}), 2);
  EXPECT_EQ(tiling.owner_tile({-1e300, 50.0}), 3);
}

}  // namespace
}  // namespace spr
