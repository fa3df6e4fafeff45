#pragma once

/// \file angle.h
/// Angular utilities: normalized bearings and counter-clockwise ray scans.
///
/// Several algorithms in the paper are phrased as "rotate a ray ... counter-
/// clockwise until the first node is hit": the LGF perimeter phase (rotate
/// the ray u->d), the shape-anchor collection (scan Q_i(u) from the
/// quadrant's clockwise boundary), and the hand rules. This header provides
/// those scans as ordering predicates on bearings.

#include <numbers>

#include "geometry/vec2.h"

namespace spr {

inline constexpr double kPi = std::numbers::pi_v<double>;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi_v<double>;

/// Bearing of vector v in [0, 2*pi), measured counter-clockwise from +x.
double bearing(Vec2 v) noexcept;

/// Bearing of the ray from `from` to `to`.
double bearing(Vec2 from, Vec2 to) noexcept;

/// Normalizes any angle into [0, 2*pi).
double normalize_angle(double radians) noexcept;

/// Counter-clockwise sweep from `start_bearing` to `target_bearing`,
/// in [0, 2*pi). A result of 0 means the target is exactly at the start ray.
double ccw_delta(double start_bearing, double target_bearing) noexcept;

/// Clockwise sweep from `start_bearing` to `target_bearing`, in [0, 2*pi).
double cw_delta(double start_bearing, double target_bearing) noexcept;

/// Comparator object: orders points around `pivot` by counter-clockwise
/// sweep starting at `start_bearing` (ties broken by distance to pivot,
/// nearer first). Points coincident with the pivot sort last.
class CcwScan {
 public:
  CcwScan(Vec2 pivot, double start_bearing) noexcept
      : pivot_(pivot), start_(start_bearing) {}

  /// Sweep needed to reach p from the start ray, in [0, 2*pi).
  double sweep_to(Vec2 p) const noexcept;

  bool operator()(Vec2 a, Vec2 b) const noexcept;

 private:
  Vec2 pivot_;
  double start_;
};

}  // namespace spr
