#pragma once

/// \file tiling.h
/// Rectangular spatial tiling of a deployment field — the geometry layer of
/// the sharded network (shard/sharded_network.h).
///
/// The field rect splits into `rows x cols` equal tiles. Every node has
/// exactly one *owner* tile (the tile whose rect contains its position;
/// boundary points resolve by clamped floor indexing, so ownership is a
/// deterministic partition). Which other nodes a tile reads — its ghosts,
/// the non-owned neighbors of its owned nodes — is a graph question that
/// `ShardedNetwork` answers, not a geometric one.

#include "geometry/rect.h"
#include "geometry/vec2.h"

namespace spr {

class Tiling {
 public:
  Tiling() = default;

  /// `rows`/`cols` >= 1 (smaller values count as 1); the caller bounds
  /// their product (`ShardedNetwork` checks it).
  Tiling(Rect field, int rows, int cols);

  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }
  int tile_count() const noexcept { return rows_ * cols_; }
  Rect field() const noexcept { return field_; }

  /// The tile rect of tile `index` (row-major: index = row * cols + col).
  Rect tile_rect(int index) const noexcept;

  /// The unique owner tile of `p`: clamped floor indexing, so points outside
  /// the field snap to the nearest border tile and boundary points resolve
  /// deterministically to the higher-index side.
  int owner_tile(Vec2 p) const noexcept;

 private:
  Rect field_;
  int rows_ = 1;
  int cols_ = 1;
  double tile_w_ = 0.0;
  double tile_h_ = 0.0;
};

}  // namespace spr
