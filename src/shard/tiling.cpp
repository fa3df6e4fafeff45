#include "shard/tiling.h"

#include <algorithm>
#include <cmath>

namespace spr {

Tiling::Tiling(Rect field, int rows, int cols)
    : field_(field), rows_(rows < 1 ? 1 : rows), cols_(cols < 1 ? 1 : cols) {
  tile_w_ = field_.width() / static_cast<double>(cols_);
  tile_h_ = field_.height() / static_cast<double>(rows_);
}

Rect Tiling::tile_rect(int index) const noexcept {
  const int r = index / cols_;
  const int c = index % cols_;
  const Vec2 lo{field_.lo().x + tile_w_ * static_cast<double>(c),
                field_.lo().y + tile_h_ * static_cast<double>(r)};
  // The last row/column absorbs the floating-point remainder so tiles tile
  // the field exactly.
  const Vec2 hi{c + 1 == cols_ ? field_.hi().x : lo.x + tile_w_,
                r + 1 == rows_ ? field_.hi().y : lo.y + tile_h_};
  return Rect::from_bounds(lo, hi);
}

int Tiling::owner_tile(Vec2 p) const noexcept {
  // Clamped in double before the cast: a finite but far-outside coordinate
  // (1e300) would overflow `int`.
  auto clamp_index = [](double offset, double step, int count) {
    const double i = step > 0.0 ? std::floor(offset / step) : 0.0;
    return static_cast<int>(
        std::clamp(i, 0.0, static_cast<double>(count - 1)));
  };
  const int c = clamp_index(p.x - field_.lo().x, tile_w_, cols_);
  const int r = clamp_index(p.y - field_.lo().y, tile_h_, rows_);
  return r * cols_ + c;
}

}  // namespace spr
