#pragma once

/// \file tiling.h
/// Rectangular spatial tiling of a deployment field — the geometry layer of
/// the sharded network (shard/sharded_network.h).
///
/// The field rect splits into `rows x cols` equal tiles. Every node has
/// exactly one *owner* tile (the tile whose rect contains its position;
/// boundary points resolve by clamped floor indexing, so ownership is a
/// deterministic partition). A tile additionally *replicates* as ghosts all
/// nodes within `halo` of its rect: with `halo >= radio range`, every owned
/// node's full unit-disk neighborhood is present locally, so a shard can
/// evaluate Definition 1 for its owned nodes without remote reads. The halo
/// carries extra slack beyond the range (see `ShardedNetwork::Config`) so
/// that bounded node drift between re-partitions cannot pull a neighbor
/// outside the replica set — the fast-path condition mobility epochs check.
///
/// `tiles_containing` uses the *closed* expanded-rect condition
/// (distance(p, tile rect) <= halo), and the same predicate decides ghost
/// membership at partition build and message routing afterwards, so the two
/// can never disagree.

#include <vector>

#include "geometry/rect.h"
#include "geometry/vec2.h"

namespace spr {

class Tiling {
 public:
  Tiling() = default;

  /// `rows`/`cols` >= 1; `halo` >= 0 (meters).
  Tiling(Rect field, int rows, int cols, double halo);

  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }
  int tile_count() const noexcept { return rows_ * cols_; }
  double halo() const noexcept { return halo_; }
  Rect field() const noexcept { return field_; }

  /// The tile rect of tile `index` (row-major: index = row * cols + col).
  Rect tile_rect(int index) const noexcept;

  /// The unique owner tile of `p`: clamped floor indexing, so points outside
  /// the field snap to the nearest border tile and boundary points resolve
  /// deterministically to the higher-index side.
  int owner_tile(Vec2 p) const noexcept;

  /// Appends (ascending) every tile whose rect lies within `halo` of `p` —
  /// the tiles that replicate a node at `p` (owner included). At most 4
  /// tiles unless the halo exceeds a tile dimension.
  void tiles_containing(Vec2 p, std::vector<int>& out) const;

 private:
  Rect field_;
  int rows_ = 1;
  int cols_ = 1;
  double halo_ = 0.0;
  double tile_w_ = 0.0;
  double tile_h_ = 0.0;
};

}  // namespace spr
