#include "routing/slgf2.h"

#include <optional>
#include <vector>

#include "geometry/segment.h"
#include "routing/greedy_util.h"
#include "routing/hand_rule.h"
#include "safety/regions.h"

namespace spr {

struct Slgf2Router::Header final : public PacketHeader {
  enum class Mode { kNormal, kBackup, kPerimeter };
  Mode mode = Mode::kNormal;
  Hand hand = Hand::kRight;
  bool hand_committed = false;
  std::optional<Rect> perimeter_rect;
  std::vector<bool> visited;
};

std::unique_ptr<PacketHeader> Slgf2Router::make_header() const {
  return std::make_unique<Header>();
}

void Slgf2Router::reset_header(PacketHeader& header, NodeId s, NodeId) const {
  auto& h = static_cast<Header&>(header);
  h.mode = Header::Mode::kNormal;
  h.hand = Hand::kRight;
  h.hand_committed = false;
  h.perimeter_rect.reset();
  h.visited.assign(graph().size(), false);
  h.visited[s] = true;
}

Router::Decision Slgf2Router::select_successor(NodeId u, NodeId d,
                                               PacketHeader& header) const {
  auto& h = static_cast<Header&>(header);
  h.visited[u] = true;
  const UnitDiskGraph& g = graph();

  // Step 1: direct delivery.
  if (g.are_neighbors(u, d)) return {d, HopPhase::kGreedy, false};

  Vec2 dest = g.position(d);
  std::vector<UnsafeAreaEstimate> estimates = visible_estimates(g, safety_, u);
  // Note: backup mode has deliberately *no* distance-based exit. Algorithm 3
  // step 4 keeps the committed hand "until the forwarding from v to d is
  // safe" — releasing it on mere distance progress re-chooses the hand next
  // to the same obstacle and can reverse the walk (measurably worse on the
  // blocked-field scenario test).

  // Superseding rule (step 3): a candidate is disqualified when it falls in
  // the forbidden region of a visible estimate whose critical region
  // contains d *and* which actually blocks the straight line to d (the rule
  // exists to avoid detours around the area's edge; estimates away from the
  // u->d line are irrelevant). Applied softly: if it would eliminate every
  // candidate the unfiltered choice stands ("prefer", not "require").
  Vec2 pu = g.position(u);

  // "Blocks the straight line": the estimate's rectangle intersects the
  // segment u->d *ahead of u*. The start is nudged forward by a sliver of
  // the radio range so rectangles merely touching u's own position (every
  // estimate u owns has u as a corner, and so can a neighbor's) don't
  // count as blocking when they lie entirely behind the travel direction.
  auto blocks_line = [&](const UnsafeAreaEstimate& e) {
    Vec2 dir = dest - pu;
    double len = dir.norm();
    if (len < 1e-9) return false;
    double nudge = std::min(0.01 * g.range(), 0.5 * len);
    Vec2 start = pu + dir * (nudge / len);
    return segment_intersects_rect({start, dest}, e.rect);
  };

  auto forbidden = [&](NodeId v) {
    if (!options_.use_either_hand) return false;
    Vec2 pv = g.position(v);
    for (const auto& e : estimates) {
      if (!blocks_line(e)) continue;
      if (in_forbidden_region(e, dest, pv)) return true;
    }
    return false;
  };

  // Step 2: safe forwarding — v safe in its own zone type toward d.
  // Visited nodes are excluded: the router is deterministic, so stepping
  // back onto the path can only repeat the decision that left it (the
  // degenerate thin-zone case otherwise ping-pongs between a wall node and
  // its backup successors until the neighborhood is exhausted).
  auto safe_toward_d = [&](NodeId v) {
    return !h.visited[v] && safety_.is_safe(v, zone_type(g.position(v), dest));
  };
  NodeId safe_pick = zone_greedy_successor(g, u, dest, [&](NodeId v) {
    return safe_toward_d(v) && !forbidden(v);
  });
  if (safe_pick == kInvalidNode) {
    safe_pick = zone_greedy_successor(g, u, dest, safe_toward_d);
  }
  if (safe_pick != kInvalidNode) {
    // Safe forwarding found: leave any detour mode (the backup hand commit
    // lasts only "until ... a safe forwarding", Algorithm 3 step 4).
    if (h.mode == Header::Mode::kBackup) {
      h.mode = Header::Mode::kNormal;
      h.hand_committed = false;  // backup hand lasts only until safe forwarding
    }
    h.visited[safe_pick] = true;
    return {safe_pick, HopPhase::kGreedy, false};
  }

  // Commit a hand for the detour from the destination's side of the
  // blocking estimate. Preference order: an estimate that actually blocks
  // the straight line to d (own over neighbors'), then any estimate whose
  // quadrant contains d, then the right hand. Perimeter mode never
  // re-commits.
  auto commit_hand = [&] {
    if (h.hand_committed) return;
    const UnsafeAreaEstimate* blocking = nullptr;
    int best_rank = 0;  // higher wins: 4 = own+blocks, 3 = blocks, 2 = own, 1 = quadrant
    for (const auto& e : estimates) {
      if (!in_quadrant(e.origin, dest, e.type)) continue;
      bool own = e.owner == u;
      bool blocks = blocks_line(e);
      int rank = blocks ? (own ? 4 : 3) : (own ? 2 : 1);
      if (rank > best_rank) {
        best_rank = rank;
        blocking = &e;
      }
    }
    h.hand = blocking != nullptr ? choose_hand(*blocking, dest) : Hand::kRight;
    h.hand_committed = true;
  };

  // Step 4: backup-path forwarding through nodes safe in some type. The
  // side decision is made once, by the committed hand: re-applying the
  // forbidden-region filter per hop against estimates that become visible
  // mid-detour can reverse an in-progress walk — exactly the oscillation
  // the paper's "stick with the same hand-rule" clause rules out — so the
  // filter applies only to the first hop of a detour.
  if (options_.use_backup_paths) {
    bool first_detour_hop = h.mode != Header::Mode::kBackup;
    commit_hand();
    auto backup_ok = [&](NodeId v) {
      return !h.visited[v] && safety_.tuple(v).any_safe();
    };
    NodeId v = kInvalidNode;
    if (first_detour_hop) {
      v = first_by_rotation_from(g, u, dest, h.hand, [&](NodeId w) {
        return backup_ok(w) && !forbidden(w);
      });
    }
    if (v == kInvalidNode) {
      v = first_by_rotation_from(g, u, dest, h.hand, backup_ok);
    }
    if (v != kInvalidNode) {
      h.mode = Header::Mode::kBackup;
      h.visited[v] = true;
      return {v, HopPhase::kBackup, false};
    }
  } else {
    // Ablation: SLGF-style enforced greedy entry into the unsafe zone.
    if (NodeId v = zone_greedy_successor(g, u, dest); v != kInvalidNode) {
      h.visited[v] = true;
      return {v, HopPhase::kGreedy, false};
    }
  }

  // Step 5: perimeter routing, hand kept until delivery, confined to the
  // rectangle covering the advertised estimates.
  bool new_minimum = h.mode != Header::Mode::kPerimeter;
  if (new_minimum) {
    commit_hand();
    h.mode = Header::Mode::kPerimeter;
    if (options_.limit_perimeter) {
      h.perimeter_rect = covering_rect(estimates, g.range());
    }
  }
  auto perimeter_ok = [&](NodeId v) {
    if (h.visited[v]) return false;
    if (h.perimeter_rect && !h.perimeter_rect->contains(g.position(v))) {
      return false;
    }
    return true;
  };
  NodeId v = first_by_rotation_from(g, u, dest, h.hand, perimeter_ok);
  if (v == kInvalidNode && h.perimeter_rect) {
    // The confined region is exhausted; release the restriction rather than
    // dropping a deliverable packet.
    h.perimeter_rect.reset();
    v = first_by_rotation_from(g, u, dest, h.hand,
                               [&](NodeId w) { return !h.visited[w]; });
  }
  if (v == kInvalidNode) return {kInvalidNode, HopPhase::kPerimeter, new_minimum};
  h.visited[v] = true;
  return {v, HopPhase::kPerimeter, new_minimum};
}

}  // namespace spr
