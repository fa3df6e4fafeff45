#include "graph/spatial_grid.h"

#include <algorithm>
#include <cmath>

namespace spr {

SpatialGrid::SpatialGrid(std::vector<Vec2> points, Rect bounds,
                         double cell_size)
    : points_(std::move(points)), bounds_(bounds), cell_size_(cell_size) {
  // The table is bounded by the point count (constant-degree fields use
  // about n/6 cells). A side too small for the bound is widened until the
  // table fits, so a tiny cell can neither exhaust memory nor overflow the
  // int casts; queries span every cell they touch, so they stay exact.
  const double max_cells = 4.0 * static_cast<double>(points_.size()) + 1024.0;
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
  // in ascending id order keeps each cell's ids sorted.
  auto cell_index = [&](Vec2 p) {
    return static_cast<size_t>(cell_row(p.y)) * static_cast<size_t>(cols_) +
           static_cast<size_t>(cell_col(p.x));
  };
  std::vector<std::size_t> counts(cell_count, 0);
  for (const Vec2& p : points_) ++counts[cell_index(p)];
  cell_offsets_.assign(cell_count + 1, 0);
  for (std::size_t i = 0; i < cell_count; ++i) {
    cell_offsets_[i + 1] = cell_offsets_[i] + counts[i];
  }
  cell_ids_.resize(points_.size());
  std::vector<std::size_t> cursor(cell_offsets_.begin(),
                                  cell_offsets_.end() - 1);
  for (NodeId id = 0; id < points_.size(); ++id) {
    cell_ids_[cursor[cell_index(points_[id])]++] = id;
  }
}

void SpatialGrid::relocate(std::span<const NodeId> ids,
                           std::span<const Vec2> new_positions) {
  auto cell_index = [&](Vec2 p) {
    return static_cast<size_t>(cell_row(p.y)) * static_cast<size_t>(cols_) +
           static_cast<size_t>(cell_col(p.x));
  };

  // Per moved point: the cell it leaves and the cell it joins. Points that
  // stay in their cell only need the coordinate update.
  std::vector<std::pair<std::size_t, NodeId>> leavers, joiners;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    NodeId id = ids[i];
    if (id >= points_.size()) continue;
    std::size_t from = cell_index(points_[id]);
    std::size_t to = cell_index(new_positions[i]);
    points_[id] = new_positions[i];
    if (from != to) {
      leavers.emplace_back(from, id);
      joiners.emplace_back(to, id);
    }
  }
  if (leavers.empty()) return;
  std::sort(leavers.begin(), leavers.end());
  std::sort(joiners.begin(), joiners.end());

  // One compaction pass over the cells: untouched cells block-copy, touched
  // cells merge (old ids minus leavers) with their sorted joiners. Both
  // inputs are ascending, so each cell stays sorted.
  const std::size_t cell_count =
      static_cast<size_t>(cols_) * static_cast<size_t>(rows_);
  std::vector<std::size_t> new_offsets(cell_count + 1, 0);
  std::vector<NodeId> new_ids(cell_ids_.size());
  std::size_t li = 0, ji = 0, write = 0;
  for (std::size_t c = 0; c < cell_count; ++c) {
    new_offsets[c] = write;
    std::span<const NodeId> old_ids{cell_ids_.data() + cell_offsets_[c],
                                    cell_offsets_[c + 1] - cell_offsets_[c]};
    bool touched = (li < leavers.size() && leavers[li].first == c) ||
                   (ji < joiners.size() && joiners[ji].first == c);
    if (!touched) {
      std::copy(old_ids.begin(), old_ids.end(), new_ids.begin() + write);
      write += old_ids.size();
      continue;
    }
    std::size_t oi = 0;
    while (oi < old_ids.size() || (ji < joiners.size() && joiners[ji].first == c)) {
      // Next survivor from the old list (skipping this cell's leavers).
      NodeId old_next = kInvalidNode;
      while (oi < old_ids.size()) {
        if (li < leavers.size() && leavers[li].first == c &&
            leavers[li].second == old_ids[oi]) {
          ++li;
          ++oi;
          continue;
        }
        old_next = old_ids[oi];
        break;
      }
      NodeId join_next = (ji < joiners.size() && joiners[ji].first == c)
                             ? joiners[ji].second
                             : kInvalidNode;
      if (old_next == kInvalidNode && join_next == kInvalidNode) break;
      if (join_next == kInvalidNode ||
          (old_next != kInvalidNode && old_next < join_next)) {
        new_ids[write++] = old_next;
        ++oi;
      } else {
        new_ids[write++] = join_next;
        ++ji;
      }
    }
    // Any leavers of this cell not consumed above (they sorted past the old
    // scan) have been skipped already; advance over stragglers defensively.
    while (li < leavers.size() && leavers[li].first == c) ++li;
  }
  new_offsets[cell_count] = write;
  cell_offsets_ = std::move(new_offsets);
  cell_ids_ = std::move(new_ids);
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
  int c0 = cell_col(center.x - radius), c1 = cell_col(center.x + radius);
  int r0 = cell_row(center.y - radius), r1 = cell_row(center.y + radius);
  double radius_sq = radius * radius;
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      for (NodeId id : cell(c, r)) {
        if (id == exclude) continue;
        if (distance_sq(points_[id], center) <= radius_sq) out.push_back(id);
      }
    }
  }
}

void SpatialGrid::query_rect(const Rect& rect, std::vector<NodeId>& out) const {
  int c0 = cell_col(rect.lo().x), c1 = cell_col(rect.hi().x);
  int r0 = cell_row(rect.lo().y), r1 = cell_row(rect.hi().y);
  for (int r = r0; r <= r1; ++r) {
    for (int c = c0; c <= c1; ++c) {
      for (NodeId id : cell(c, r)) {
        if (rect.contains(points_[id])) out.push_back(id);
      }
    }
  }
}

}  // namespace spr
