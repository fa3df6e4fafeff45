#pragma once

/// \file spatial_grid.h
/// Uniform hash grid over the deployment field, used to build unit-disk
/// adjacency in O(n) expected time and to answer range queries.

#include <span>
#include <vector>

#include "geometry/rect.h"
#include "geometry/vec2.h"
#include "graph/node.h"

namespace spr {

/// Buckets points into square cells of side `cell_size` covering `bounds`.
///
/// The grid owns a copy of the point set, so it stays valid independently of
/// the caller's vector — UnitDiskGraph shares one grid across every
/// `with_failures` copy (the positions never change, only aliveness).
///
/// **Cell-ordered layout.** The cells are stored in CSR form, row-major:
/// per-cell offsets into one slot array, each slot holding a point's id
/// and, beside it, its coordinate — the grid's only copy of the point set.
/// A cell's slots are in ascending id order, and the cells of one grid row
/// are adjacent, so a query scans one contiguous slot range per grid row
/// it touches and reads every coordinate it tests from that range, not
/// from an id-ordered array in random order.
class SpatialGrid {
 public:
  /// Builds the grid over all `points`. `cell_size` should be >= the query
  /// radius for single-ring neighbor queries (we use the radio range). The
  /// table holds at most 4 * points.size() + 1024 cells: a smaller
  /// `cell_size` is widened until it fits.
  SpatialGrid(std::span<const Vec2> points, Rect bounds, double cell_size);

  /// Appends to `out` the ids of all points within `radius` of `center`
  /// (excluding `exclude`, pass kInvalidNode to keep everything), cell by
  /// cell in grid order and ascending within a cell.
  void query_radius(Vec2 center, double radius, NodeId exclude,
                    std::vector<NodeId>& out) const;

  /// Ids of all points inside the axis-aligned rectangle.
  void query_rect(const Rect& r, std::vector<NodeId>& out) const;

  /// Moves the distinct points `ids` from `from[id]`, the coordinate the
  /// grid holds for them (checked), to `to[id]`, *without* re-bucketing
  /// the unmoved points: cells whose membership did not change are
  /// block-copied, a point that stays in its cell only has its coordinate
  /// rewritten, and only the moved points pay the cell-index
  /// recomputation. Each cell's
  /// slots stay in ascending id order, so the relocated grid is
  /// indistinguishable from one built from scratch over the new point set
  /// (tests enforce query equality).
  ///
  /// The grid is shared across `UnitDiskGraph` snapshots via shared_ptr —
  /// mutate only a freshly copied grid (UnitDiskGraph::with_moves does).
  void relocate(std::span<const NodeId> ids, std::span<const Vec2> from,
                std::span<const Vec2> to);

  int cols() const noexcept { return cols_; }
  int rows() const noexcept { return rows_; }
  std::size_t point_count() const noexcept { return slot_ids_.size(); }

 private:
  int cell_col(double x) const noexcept;
  int cell_row(double y) const noexcept;
  std::size_t cell_index(Vec2 p) const noexcept {
    return static_cast<std::size_t>(cell_row(p.y)) *
               static_cast<std::size_t>(cols_) +
           static_cast<std::size_t>(cell_col(p.x));
  }
  /// The slot of `id` in `cell`; fails a check when the cell lacks it.
  std::size_t slot_of(std::size_t cell, NodeId id) const;

  Rect bounds_;
  double cell_size_;
  int cols_, rows_;
  std::vector<std::size_t> cell_offsets_;  ///< cols*rows + 1 entries
  std::vector<NodeId> slot_ids_;           ///< point ids grouped by cell
  std::vector<Vec2> slot_points_;          ///< their coordinates, per slot
};

}  // namespace spr
