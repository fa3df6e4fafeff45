#include "routing/boundhole.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geometry/angle.h"
#include "util/check.h"

namespace spr {

namespace {

/// A boundary walk that has not closed after this many multiples of n steps
/// is discarded.
constexpr std::size_t kMaxCycleFactor = 2;

/// A TENT gap below this never passes (see tent_stuck), so its alphas are
/// not computed.
constexpr double kTentMinGap = 2.09;

using AngleScratch = std::vector<std::pair<double, NodeId>>;

/// Writes the bearing from u to each of its neighbors, in neighbor order.
void bearing_row(const UnitDiskGraph& g, NodeId u, std::span<double> out) {
  Vec2 pu = g.position(u);
  auto nbrs = g.neighbors(u);
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    out[i] = bearing(pu, g.position(nbrs[i]));
  }
}

/// Fills `by_angle` with u's (bearing, neighbor) pairs in angular order;
/// `row` holds the bearings of u's darts in neighbor order.
void sort_by_angle(const UnitDiskGraph& g, NodeId u,
                   std::span<const double> row, AngleScratch& by_angle) {
  auto nbrs = g.neighbors(u);
  by_angle.clear();
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    by_angle.emplace_back(row[i], nbrs[i]);
  }
  std::sort(by_angle.begin(), by_angle.end());
}

/// tent_rule_stuck over u's bearing row; `by_angle` is reusable scratch.
bool tent_stuck(const UnitDiskGraph& g, NodeId u, std::span<const double> row,
                AngleScratch& by_angle) {
  if (row.size() < 2) return true;
  sort_by_angle(g, u, row, by_angle);

  // TENT rule, exact form. u is stuck for some destination just beyond the
  // radio disc in the angular gap between adjacent neighbors v1, v2 iff a
  // direction theta in the gap satisfies |r*theta - v_i| > r for both,
  // i.e. angle(theta, v_i) > alpha_i with alpha_i = arccos(|u v_i| / 2r).
  // Such a theta exists iff gap > alpha_1 + alpha_2. With |u v_i| <= r the
  // alphas are in [60, 90] degrees, recovering the classic "every gap below
  // 120 degrees is never stuck" bound. Every neighbour lies within `range`
  // (the graph's own radius test), so alpha_1 + alpha_2 + 1e-12 > 2.0943
  // up to rounding in the last bits: a gap under kTentMinGap fails the
  // test, and skipping its two acos calls changes no result.
  Vec2 pu = g.position(u);
  const double range = g.range();
  auto alpha = [&](NodeId v) {
    double cosv = std::clamp(distance(pu, g.position(v)) / (2.0 * range), 0.0, 1.0);
    return std::acos(cosv);
  };
  for (std::size_t i = 0; i < by_angle.size(); ++i) {
    const auto& [a1, v1] = by_angle[i];
    const auto& [a2, v2] = by_angle[(i + 1) % by_angle.size()];
    // Wrap-around pair: the sweep from the last bearing back to the first
    // covers the remainder of the circle (2*pi when all bearings coincide).
    double gap = ccw_delta(a1, a2);
    if (i + 1 == by_angle.size() && gap == 0.0) gap = kTwoPi;
    if (gap < kTentMinGap) continue;
    if (gap > alpha(v1) + alpha(v2) + 1e-12) return true;
  }
  return false;
}

/// Direction bisecting the widest angular gap of u's neighbors — the most
/// "hole-ward" direction, used to aim the first step of the walk.
double widest_gap_bisector(const UnitDiskGraph& g, NodeId u,
                           std::span<const double> row,
                           AngleScratch& by_angle) {
  sort_by_angle(g, u, row, by_angle);
  double best_gap = -1.0, best_mid = 0.0;
  for (std::size_t i = 0; i < by_angle.size(); ++i) {
    double a1 = by_angle[i].first;
    double a2 = by_angle[(i + 1) % by_angle.size()].first;
    double gap = ccw_delta(a1, a2);
    if (by_angle.size() == 1) gap = kTwoPi;
    if (gap > best_gap) {
      best_gap = gap;
      best_mid = normalize_angle(a1 + gap / 2.0);
    }
  }
  return best_mid;
}

/// Rank of v in u's sorted neighbor row (v must be a neighbor of u).
std::uint32_t rank_in_row(const UnitDiskGraph& g, NodeId u, NodeId v) {
  auto row = g.neighbors(u);
  auto at = std::lower_bound(row.begin(), row.end(), v);
  SPR_DCHECK(at != row.end() && *at == v, "edge ", u, "-", v,
             " missing from row ", u);
  return static_cast<std::uint32_t>(at - row.begin());
}

/// One boundary-walk step, memoized per dart. Arriving at `cur` from
/// `prev`, the walk moves to `next`, the first neighbor counter-clockwise
/// from the ray cur->prev (prev itself only when it is the sole neighbor).
/// `back_rank` is cur's rank in next's row: the dart next->cur keys the
/// step after this one.
struct SweepStep {
  NodeId next = kInvalidNode;
  std::uint32_t back_rank = 0;
};

/// The sweep at `cur` whose start ray is the dart `back` = cur->prev.
NodeId sweep_successor(const UnitDiskGraph& g, std::span<const double> bearings,
                       NodeId cur, std::size_t back) {
  const std::size_t base = g.neighbor_offset(cur);
  auto nbrs = g.neighbors(cur);
  const double start = bearings[back];
  NodeId pick = kInvalidNode;
  double best = 0.0;
  for (std::size_t i = 0; i < nbrs.size(); ++i) {
    if (base + i == back) continue;
    double sweep = ccw_delta(start, bearings[base + i]);
    if (sweep == 0.0) sweep = kTwoPi;  // collinear-behind goes last
    if (pick == kInvalidNode || sweep < best) {
      pick = nbrs[i];
      best = sweep;
    }
  }
  return pick == kInvalidNode ? nbrs[back - base] : pick;
}

}  // namespace

bool tent_rule_stuck(const UnitDiskGraph& g, NodeId u) {
  std::vector<double> row(g.degree(u));
  bearing_row(g, u, row);
  AngleScratch by_angle;
  return tent_stuck(g, u, row, by_angle);
}

BoundHoleInfo::BoundHoleInfo(const UnitDiskGraph& g) {
  const std::size_t n = g.size();
  stuck_.assign(n, false);
  boundary_of_.assign(n, -1);
  cycle_pos_.assign(n, -1);

  // One bearing per dart, shared by the TENT rule, the first-step aim and
  // every sweep; and the sweep successor of each dart, filled on its first
  // visit. Discarded walks make later stuck nodes re-walk the same orbits,
  // so most steps are memo hits. A memo entry is a pure function of its
  // dart, so which walk fills it, or whether a walk stops early, never
  // changes a step.
  std::vector<double> bearings(g.directed_edge_count());
  std::vector<SweepStep> steps(bearings.size());
  auto row_of = [&](NodeId u) {
    return std::span<double>(bearings).subspan(g.neighbor_offset(u),
                                               g.degree(u));
  };
  for (NodeId u = 0; u < n; ++u) bearing_row(g, u, row_of(u));

  AngleScratch by_angle;
  for (NodeId u = 0; u < n; ++u) {
    if (g.alive(u) && g.degree(u) > 0) {
      stuck_[u] = tent_stuck(g, u, row_of(u), by_angle);
    }
  }

  // Discard degenerate mega-walks: a genuine hole boundary is a small
  // fraction of the network (its node count scales with the hole
  // perimeter). Self-crossing sweeps can "close" after wandering most of
  // the graph; walking those during recovery would dwarf the detour the
  // boundary is meant to shorten. A walk whose cycle outgrows `keep` is
  // discarded whether it would close or not, so it stops there: the cycle
  // starts with two nodes and gains one per step, so a walk takes at most
  // keep - 1 steps, and the 2n-step cap binds first only below 8 nodes.
  const std::size_t keep = std::max<std::size_t>(16, n / 4);
  const std::size_t cap = kMaxCycleFactor * std::max<std::size_t>(n, 1);
  for (NodeId t0 = 0; t0 < n; ++t0) {
    if (!stuck_[t0] || boundary_of_[t0] != -1) continue;
    if (g.degree(t0) < 2) continue;  // no cycle through a leaf

    // First step: sweep counter-clockwise from the hole-ward direction.
    auto row0 = row_of(t0);
    double aim = widest_gap_bisector(g, t0, row0, by_angle);
    auto nbrs0 = g.neighbors(t0);
    NodeId t1 = kInvalidNode;
    double best = kTwoPi + 1.0;
    for (std::size_t i = 0; i < nbrs0.size(); ++i) {
      double sweep = ccw_delta(aim, row0[i]);
      if (sweep < best) {
        best = sweep;
        t1 = nbrs0[i];
      }
    }
    if (t1 == kInvalidNode) continue;

    std::vector<NodeId> cycle{t0, t1};
    NodeId cur = t1;
    std::size_t back = g.neighbor_offset(t1) + rank_in_row(g, t1, t0);
    bool closed = false;
    for (std::size_t step = 0; step < cap && cycle.size() <= keep; ++step) {
      SweepStep& s = steps[back];
      if (s.next == kInvalidNode) {
        s.next = sweep_successor(g, bearings, cur, back);
        s.back_rank = rank_in_row(g, s.next, cur);
      }
      if (s.next == t0) {
        closed = true;
        break;
      }
      cycle.push_back(s.next);
      cur = s.next;
      back = g.neighbor_offset(cur) + s.back_rank;
    }
    if (!closed || cycle.size() < 3) continue;

    // Discard the outer face: a "boundary" that encircles most of the
    // deployment is the network edge, not a hole (the BOUNDHOLE paper
    // excludes it as well). Detected by loop area against the field.
    {
      double area2 = 0.0;
      for (std::size_t i = 0, j = cycle.size() - 1; i < cycle.size(); j = i++) {
        area2 += g.position(cycle[j]).cross(g.position(cycle[i]));
      }
      double loop_area = std::abs(0.5 * area2);
      double field_area = g.bounds().area();
      if (field_area > 0.0 && loop_area > 0.4 * field_area) continue;
    }

    int index = static_cast<int>(boundaries_.size());
    // A node can appear twice in a degenerate sweep; keep the first slot.
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      NodeId v = cycle[i];
      if (boundary_of_[v] == -1) {
        boundary_of_[v] = index;
        cycle_pos_[v] = static_cast<int>(i);
      }
    }
    boundaries_.push_back(HoleBoundary{std::move(cycle)});
  }
}

std::size_t BoundHoleInfo::stuck_count() const noexcept {
  return static_cast<std::size_t>(std::count(stuck_.begin(), stuck_.end(), true));
}

}  // namespace spr
