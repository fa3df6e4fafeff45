#include "graph/spatial_grid.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace spr {

SpatialGrid::SpatialGrid(std::span<const Vec2> points, Rect bounds,
                         double cell_size)
    : bounds_(bounds), cell_size_(cell_size) {
  // The table is bounded by the point count (constant-degree fields use
  // about n/6 cells). A side too small for the bound is widened until the
  // table fits, so a tiny cell can neither exhaust memory nor overflow the
  // int casts; queries span every cell they touch, so they stay exact.
  const double max_cells = 4.0 * static_cast<double>(points.size()) + 1024.0;
  auto along = [&](double extent) {
    return std::max(1.0, std::ceil(extent / cell_size_));
  };
  if (along(bounds.width()) * along(bounds.height()) > max_cells) {
    cell_size_ = std::max(bounds.width(), bounds.height()) /
                 std::floor(std::sqrt(max_cells));
    while (along(bounds.width()) * along(bounds.height()) > max_cells) {
      cell_size_ *= 2.0;
    }
  }
  cols_ = static_cast<int>(along(bounds.width()));
  rows_ = static_cast<int>(along(bounds.height()));
  const std::size_t cell_count =
      static_cast<size_t>(cols_) * static_cast<size_t>(rows_);

  // CSR build: count per cell, prefix-sum into offsets, then fill. Filling
  // in ascending id order keeps each cell's slots sorted by id.
  cell_offsets_.assign(cell_count + 1, 0);
  for (const Vec2& p : points) ++cell_offsets_[cell_index(p) + 1];
  for (std::size_t i = 0; i < cell_count; ++i) {
    cell_offsets_[i + 1] += cell_offsets_[i];
  }
  slot_ids_.resize(points.size());
  slot_points_.resize(points.size());
  std::vector<std::size_t> cursor(cell_offsets_.begin(),
                                  cell_offsets_.end() - 1);
  for (NodeId id = 0; id < points.size(); ++id) {
    const std::size_t slot = cursor[cell_index(points[id])]++;
    slot_ids_[slot] = id;
    slot_points_[slot] = points[id];
  }
}

std::size_t SpatialGrid::slot_of(std::size_t cell, NodeId id) const {
  const auto first = slot_ids_.begin() +
                     static_cast<std::ptrdiff_t>(cell_offsets_[cell]);
  const auto last = slot_ids_.begin() +
                    static_cast<std::ptrdiff_t>(cell_offsets_[cell + 1]);
  const auto it = std::lower_bound(first, last, id);
  SPR_CHECK(it != last && *it == id, "relocate: node ", id,
            " is not in the cell of its from-position");
  return static_cast<std::size_t>(it - slot_ids_.begin());
}

void SpatialGrid::relocate(std::span<const NodeId> ids,
                           std::span<const Vec2> from,
                           std::span<const Vec2> to) {
  // Per moved point: the cell it leaves and the cell it joins. Points that
  // stay in their cell only need the coordinate update.
  std::vector<std::pair<std::size_t, NodeId>> leavers, joiners;
  for (const NodeId id : ids) {
    SPR_CHECK(id < from.size() && id < to.size(), "relocate: node ", id,
              " has no position");
    const std::size_t src = cell_index(from[id]);
    const std::size_t dst = cell_index(to[id]);
    const std::size_t slot = slot_of(src, id);
    if (src == dst) {
      slot_points_[slot] = to[id];
      continue;
    }
    leavers.emplace_back(src, id);
    joiners.emplace_back(dst, id);
  }
  if (leavers.empty()) return;
  std::sort(leavers.begin(), leavers.end());
  std::sort(joiners.begin(), joiners.end());

  // One compaction pass over the cells: untouched cells block-copy, touched
  // cells merge (old slots minus leavers) with their sorted joiners. Both
  // inputs are ascending, so each cell stays sorted.
  const std::size_t cell_count = cell_offsets_.size() - 1;
  std::vector<std::size_t> new_offsets(cell_count + 1, 0);
  std::vector<NodeId> new_ids(slot_ids_.size());
  std::vector<Vec2> new_points(slot_points_.size());
  std::size_t li = 0, ji = 0, write = 0;
  for (std::size_t c = 0; c < cell_count; ++c) {
    new_offsets[c] = write;
    std::size_t oi = cell_offsets_[c];
    const std::size_t old_end = cell_offsets_[c + 1];
    const bool touched = (li < leavers.size() && leavers[li].first == c) ||
                         (ji < joiners.size() && joiners[ji].first == c);
    if (!touched) {
      std::copy(slot_ids_.begin() + static_cast<std::ptrdiff_t>(oi),
                slot_ids_.begin() + static_cast<std::ptrdiff_t>(old_end),
                new_ids.begin() + static_cast<std::ptrdiff_t>(write));
      std::copy(slot_points_.begin() + static_cast<std::ptrdiff_t>(oi),
                slot_points_.begin() + static_cast<std::ptrdiff_t>(old_end),
                new_points.begin() + static_cast<std::ptrdiff_t>(write));
      write += old_end - oi;
      continue;
    }
    while (true) {
      // Skip this cell's leavers; every one sits in its old slots.
      while (oi < old_end && li < leavers.size() && leavers[li].first == c &&
             leavers[li].second == slot_ids_[oi]) {
        ++li;
        ++oi;
      }
      const bool has_old = oi < old_end;
      const bool has_join = ji < joiners.size() && joiners[ji].first == c;
      if (!has_old && !has_join) break;
      if (!has_join || (has_old && slot_ids_[oi] < joiners[ji].second)) {
        new_ids[write] = slot_ids_[oi];
        new_points[write++] = slot_points_[oi++];
      } else {
        const NodeId id = joiners[ji++].second;
        new_ids[write] = id;
        new_points[write++] = to[id];
      }
    }
  }
  new_offsets[cell_count] = write;
  cell_offsets_ = std::move(new_offsets);
  slot_ids_ = std::move(new_ids);
  slot_points_ = std::move(new_points);
}

namespace {
/// Clamps a fractional cell index to [0, count - 1] in `double` before the
/// cast, so a coordinate far outside the field cannot overflow `int`; NaN
/// goes to cell 0.
int clamp_cell(double c, int count) noexcept {
  if (!(c >= 0.0)) return 0;
  if (c >= count) return count - 1;
  return static_cast<int>(c);
}
}  // namespace

int SpatialGrid::cell_col(double x) const noexcept {
  return clamp_cell((x - bounds_.lo().x) / cell_size_, cols_);
}

int SpatialGrid::cell_row(double y) const noexcept {
  return clamp_cell((y - bounds_.lo().y) / cell_size_, rows_);
}

void SpatialGrid::query_radius(Vec2 center, double radius, NodeId exclude,
                               std::vector<NodeId>& out) const {
  const int c0 = cell_col(center.x - radius), c1 = cell_col(center.x + radius);
  const int r0 = cell_row(center.y - radius), r1 = cell_row(center.y + radius);
  const double radius_sq = radius * radius;
  for (int r = r0; r <= r1; ++r) {
    // Cells c0..c1 of one grid row are one contiguous run of slots. Every
    // slot is written and kept only when it passes, without a branch.
    const std::size_t row = static_cast<size_t>(r) * static_cast<size_t>(cols_);
    const std::size_t begin = cell_offsets_[row + static_cast<size_t>(c0)];
    const std::size_t end = cell_offsets_[row + static_cast<size_t>(c1) + 1];
    std::size_t kept = out.size();
    out.resize(kept + (end - begin));
    for (std::size_t s = begin; s < end; ++s) {
      out[kept] = slot_ids_[s];
      kept += static_cast<std::size_t>(
          (distance_sq(slot_points_[s], center) <= radius_sq) &
          (slot_ids_[s] != exclude));
    }
    out.resize(kept);
  }
}

void SpatialGrid::query_rect(const Rect& rect, std::vector<NodeId>& out) const {
  const int c0 = cell_col(rect.lo().x), c1 = cell_col(rect.hi().x);
  const int r0 = cell_row(rect.lo().y), r1 = cell_row(rect.hi().y);
  for (int r = r0; r <= r1; ++r) {
    const std::size_t row = static_cast<size_t>(r) * static_cast<size_t>(cols_);
    const std::size_t end = cell_offsets_[row + static_cast<size_t>(c1) + 1];
    for (std::size_t s = cell_offsets_[row + static_cast<size_t>(c0)]; s < end;
         ++s) {
      if (rect.contains(slot_points_[s])) out.push_back(slot_ids_[s]);
    }
  }
}

}  // namespace spr
