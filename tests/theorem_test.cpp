/// \file theorem_test.cpp
/// Executable statements of the paper's two theorems, as far as they are
/// decidable from the implemented model: each test states the direction or
/// consequence it checks, and the caveat below names the one gap between
/// Definition 1's quadrants and LGF's bounded zones.
///
/// Theorem 1: "Any LGF routing can be blocked by a local minimum if and
/// only if one type-i unsafe node is used."
/// Theorem 2: "The type-i forwarding from node u in LGF routing will be
/// blocked iff any node inside the estimated type-i unsafe area E_i(u)
/// [x_u : x_{u(1)}, y_u : y_{u(2)}] is used."

#include <gtest/gtest.h>

#include "routing/lgf.h"
#include "safety/shape.h"
#include "test_helpers.h"

namespace spr {
namespace {

/// Theorem 1, "if" direction contrapositive: a walk that only ever stands on
/// nodes safe w.r.t. their current zone type toward d never hits a local
/// minimum — because Definition 1's fixpoint guarantees a same-type safe
/// successor in the quadrant, the walk can always continue.
TEST(Theorem1, SafeNodesAlwaysHaveQuadrantSuccessors) {
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    const auto& g = net.graph();
    const auto& info = net.safety();
    for (NodeId u = 0; u < g.size(); ++u) {
      if (net.interest_area().is_edge_node(u)) continue;
      for (ZoneType t : kAllZoneTypes) {
        if (!info.is_safe(u, t)) continue;
        bool has = false;
        for (NodeId v : g.neighbors(u)) {
          if (in_quadrant(g.position(u), g.position(v), t) &&
              info.is_safe(v, t)) {
            has = true;
            break;
          }
        }
        EXPECT_TRUE(has) << "safe node " << u << " type "
                         << static_cast<int>(t) << " stuck, seed " << seed;
      }
    }
  }
}

/// Theorem 1, "only if" direction: when LGF hits a local minimum at node m
/// (perimeter phase begins), m is type-k unsafe for the zone type k of m
/// toward the destination — i.e. blocks only happen on unsafe nodes.
///
/// Caveat: Definition 1 labels via the unbounded
/// quadrant Q_k while LGF forwards within the bounded zone Z_k(u,d), so a
/// *safe* node can still be zone-blocked when d is very close (its safe
/// successors lie beyond the zone). The theorem therefore holds for blocks
/// that occur while d is outside u's radio neighborhood by more than the
/// zone-degenerate margin; we assert over exactly those and additionally
/// require at least one genuine block to have been observed.
TEST(Theorem1, LgfBlocksHappenAtUnsafeNodes) {
  std::size_t blocks_checked = 0, blocks_at_unsafe = 0;
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(500, seed, DeployModel::kForbiddenAreas);
    const auto& g = net.graph();
    const auto& info = net.safety();
    LgfRouter router(g);
    Rng rng(seed ^ 0x9e37);
    for (int trial = 0; trial < 12; ++trial) {
      auto [s, d] = net.random_connected_interior_pair(rng);
      PathResult r = router.route(s, d);
      Vec2 dest = g.position(d);
      for (std::size_t i = 0; i + 1 < r.path.size(); ++i) {
        bool entering_perimeter =
            r.hop_phases[i] == HopPhase::kPerimeter &&
            (i == 0 || r.hop_phases[i - 1] != HopPhase::kPerimeter);
        if (!entering_perimeter) continue;
        NodeId m = r.path[i];
        if (net.interest_area().is_edge_node(m)) continue;
        // Skip zone-degenerate blocks: request zone thinner than the radio
        // range in either dimension.
        Rect zone = request_zone(g.position(m), dest);
        if (zone.width() < g.range() || zone.height() < g.range()) continue;
        ++blocks_checked;
        if (!info.is_safe(m, zone_type(g.position(m), dest))) {
          ++blocks_at_unsafe;
        }
      }
    }
  }
  ASSERT_GT(blocks_checked, 0u) << "no informative local minima sampled";
  EXPECT_EQ(blocks_at_unsafe, blocks_checked)
      << "some LGF block occurred at a node labeled safe";
}

/// Theorem 2 consequence: the anchors defining E_i(u) are endpoints of real
/// type-i forwarding chains from u, and the estimate covers both the origin
/// and those endpoints — so any forwarding that would be blocked beyond the
/// estimate is impossible.
TEST(Theorem2, ForwardingWithinUnsafeChainStaysInEstimate) {
  std::size_t nodes_checked = 0, contained = 0;
  for (std::uint64_t seed : test::property_seeds()) {
    Network net = test::random_network(450, seed, DeployModel::kForbiddenAreas);
    const auto& g = net.graph();
    const auto& info = net.safety();
    for (NodeId u = 0; u < g.size(); ++u) {
      for (ZoneType t : kAllZoneTypes) {
        auto e = estimate_for(g, info, u, t);
        if (!e) continue;
        // Walk the first-scan chain (the path to u(1)) and the last-scan
        // chain (to u(2)): every chain node must lie in E_t(u).
        for (bool first_chain : {true, false}) {
          NodeId w = u;
          for (int guard = 0; guard < 1000; ++guard) {
            ++nodes_checked;
            if (e->rect.contains(g.position(w), 1e-9)) ++contained;
            const auto& a = info.tuple(w).anchors_for(t);
            NodeId target = first_chain ? a.first : a.last;
            if (target == w) break;
            // Step to the scan-extreme unsafe neighbor (the chain link).
            CcwScan scan(g.position(w), quadrant_start_bearing(t));
            NodeId next = kInvalidNode;
            double best = first_chain ? 1e18 : -1.0;
            for (NodeId v : g.neighbors(w)) {
              if (!in_quadrant(g.position(w), g.position(v), t)) continue;
              if (info.is_safe(v, t)) continue;
              double sweep = scan.sweep_to(g.position(v));
              if (first_chain ? sweep < best : sweep > best) {
                best = sweep;
                next = v;
              }
            }
            if (next == kInvalidNode) break;
            w = next;
          }
        }
      }
    }
  }
  ASSERT_GT(nodes_checked, 0u);
  EXPECT_EQ(contained, nodes_checked)
      << "an anchor-chain node escaped its estimated unsafe area";
}

/// Theorem 2 (empirical breadth): the whole greedy region G_t(u) — every
/// type-t unsafe node reachable by type-t forwarding — should overwhelmingly
/// fall inside E_t(u). The two-anchor rectangle is an estimate, so we assert
/// a high fraction rather than totality and report the measured value.
TEST(Theorem2, GreedyRegionMostlyInsideEstimate) {
  std::size_t total = 0, inside = 0;
  for (std::uint64_t seed : {11ull, 23ull, 37ull}) {
    Network net = test::random_network(450, seed, DeployModel::kForbiddenAreas);
    const auto& g = net.graph();
    const auto& info = net.safety();
    for (NodeId u = 0; u < g.size(); ++u) {
      for (ZoneType t : kAllZoneTypes) {
        auto e = estimate_for(g, info, u, t);
        if (!e) continue;
        // BFS over type-t unsafe quadrant steps.
        std::vector<bool> seen(g.size(), false);
        std::vector<NodeId> stack{u};
        seen[u] = true;
        while (!stack.empty()) {
          NodeId w = stack.back();
          stack.pop_back();
          ++total;
          if (e->rect.contains(g.position(w), 1e-9)) ++inside;
          for (NodeId v : g.neighbors(w)) {
            if (seen[v]) continue;
            if (!in_quadrant(g.position(w), g.position(v), t)) continue;
            if (info.is_safe(v, t)) continue;
            seen[v] = true;
            stack.push_back(v);
          }
        }
      }
    }
  }
  ASSERT_GT(total, 0u);
  double fraction = static_cast<double>(inside) / static_cast<double>(total);
  RecordProperty("containment_fraction", std::to_string(fraction));
  EXPECT_GE(fraction, 0.75) << "estimate covers only " << fraction;
}

}  // namespace
}  // namespace spr
