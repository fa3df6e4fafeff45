#include "safety/labeling.h"

#include <array>
#include <deque>
#include <utility>

#include "safety/zone_scan.h"
#include "util/arena.h"
#include "util/task_pool.h"

namespace spr {

std::size_t SafetyInfo::unsafe_node_count() const noexcept {
  std::size_t count = 0;
  for (const auto& t : tuples_) {
    if (!t.safe[0] || !t.safe[1] || !t.safe[2] || !t.safe[3]) ++count;
  }
  return count;
}

namespace {

/// True when Definition 1 forces S_t(u) to unsafe given current labels:
/// every neighbor inside Q_t(u) has S_t = 0 (vacuously true when none).
/// Scalar form — a geometry test per neighbor visit.
bool must_flip(const UnitDiskGraph& g, const std::vector<SafetyTuple>& tuples,
               NodeId u, ZoneType t) {
  Vec2 pu = g.position(u);
  for (NodeId v : g.neighbors(u)) {
    if (!in_quadrant(pu, g.position(v), t)) continue;
    if (tuples[v].is_safe(t)) return false;
  }
  return true;
}

/// Fills the anchors of every unsafe (node, type) pair by the memoized
/// first/last-path recursion of Algorithm 2. Returns the number of anchor
/// sets written. Scalar form; the flat kernel's explicit-stack pass must
/// produce identical anchors (tests enforce it).
std::size_t compute_anchors(const UnitDiskGraph& g,
                            std::vector<SafetyTuple>& tuples) {
  const std::size_t n = g.size();
  for (ZoneType t : kAllZoneTypes) {
    enum class State : unsigned char { kUnvisited, kVisiting, kDone };
    std::vector<State> state(n, State::kUnvisited);

    // Iterative DFS resolving anchor.first via the first-hit chain and
    // anchor.last via the last-hit chain. Self-anchoring breaks the
    // (measure-impossible, but defensively handled) cycles.
    auto resolve = [&](auto&& self, NodeId u) -> void {
      if (state[u] == State::kDone) return;
      ShapeAnchors& a = tuples[u].anchors_for(t);
      if (state[u] == State::kVisiting) {
        // Cycle guard: anchor at self.
        a.first = a.last = u;
        a.first_pos = a.last_pos = g.position(u);
        state[u] = State::kDone;
        return;
      }
      state[u] = State::kVisiting;
      Vec2 pu = g.position(u);
      // Selection through the shared FirstLastScan (safety/zone_scan.h) —
      // the same winners as the flat kernel and the distributed protocol,
      // by construction. The membership test stays scalar geometry.
      FirstLastScan scan(pu, t);
      for (NodeId v : g.neighbors(u)) {
        Vec2 pv = g.position(v);
        if (!in_quadrant(pu, pv, t)) continue;
        if (tuples[v].is_safe(t)) continue;  // only type-t unsafe chains
        scan.consider(v, pv);
      }
      if (scan.empty()) {
        a.first = a.last = u;
        a.first_pos = a.last_pos = g.position(u);
      } else {
        const NodeId v_first = scan.first();
        const NodeId v_last = scan.last();
        self(self, v_first);
        self(self, v_last);
        a.first = tuples[v_first].anchors_for(t).first;
        a.first_pos = tuples[v_first].anchors_for(t).first_pos;
        a.last = tuples[v_last].anchors_for(t).last;
        a.last_pos = tuples[v_last].anchors_for(t).last_pos;
      }
      state[u] = State::kDone;
    };

    for (NodeId u = 0; u < n; ++u) {
      if (!tuples[u].is_safe(t)) resolve(resolve, u);
    }
  }
  std::size_t written = 0;
  for (const auto& tuple : tuples) {
    for (ZoneType t : kAllZoneTypes) {
      if (!tuple.is_safe(t)) ++written;
    }
  }
  return written;
}

}  // namespace

std::size_t recompute_all_anchors(const UnitDiskGraph& g, SafetyInfo& info,
                                  TaskPool* pool) {
  g.zones(pool);
  Arena& arena = FlatLabeler::scratch();
  arena.reset();
  FlatLabeler labeler(g, nullptr, arena);
  labeler.start_from(info);
  return labeler.compute_anchors(info, pool);
}

SafetyInfo compute_safety(const UnitDiskGraph& g, const InterestArea& area,
                          TaskPool* build_pool, LabelingStats* stats) {
  g.zones(build_pool);  // the epoch's quadrant view, built once (parallel ok)
  Arena& arena = FlatLabeler::scratch();
  arena.reset();
  FlatLabeler labeler(g, &area, arena);
  labeler.start_all_safe();
  labeler.initial_round(build_pool);
  labeler.drain(build_pool);

  // Back to the tuple form only at the boundary: default tuples are all
  // safe with cleared anchors, so replaying the flip list lands on the
  // fixpoint statuses.
  std::vector<SafetyTuple> tuples(g.size());
  for (const std::uint32_t k : labeler.flipped()) {
    tuples[FlatLabeler::key_node(k)].set_safe(
        kAllZoneTypes[FlatLabeler::key_type(k)], false);
  }
  SafetyInfo info(std::move(tuples));
  labeler.compute_anchors(info, build_pool);
  if (stats != nullptr) *stats = labeler.stats();
  return info;
}

SafetyInfo compute_safety_scalar(const UnitDiskGraph& g,
                                 const InterestArea& area,
                                 LabelingStats* stats) {
  const std::size_t n = g.size();
  std::vector<SafetyTuple> tuples(n);
  LabelingStats local;

  // Initialization round against the all-safe labeling: S_t(u) can only
  // flip when Q_t(u) holds no neighbor at all (must_flip is vacuously
  // true).
  std::vector<std::array<bool, 4>> initial_flip(
      n, {false, false, false, false});
  for (NodeId u = 0; u < n; ++u) {
    if (!g.alive(u) || area.is_edge_node(u)) continue;  // pinned / dead
    for (ZoneType t : kAllZoneTypes) {
      if (must_flip(g, tuples, u, t)) {
        initial_flip[u][static_cast<size_t>(zone_index(t))] = true;
      }
    }
  }

  // Worklist over (node, type) pairs, seeded by the initial flips' fan-out.
  // Monotone flips guarantee a unique fixpoint regardless of processing
  // order.
  std::deque<std::pair<NodeId, ZoneType>> worklist;
  std::vector<std::array<bool, 4>> queued(n, {false, false, false, false});
  auto enqueue = [&](NodeId u, ZoneType t) {
    auto& flag = queued[u][static_cast<size_t>(zone_index(t))];
    if (!flag) {
      flag = true;
      worklist.emplace_back(u, t);
      ++local.pushes;
    }
  };
  for (NodeId u = 0; u < n; ++u) {
    for (ZoneType t : kAllZoneTypes) {
      if (!initial_flip[u][static_cast<size_t>(zone_index(t))]) continue;
      tuples[u].set_safe(t, false);
      ++local.init_flips;
      for (NodeId w : g.neighbors(u)) {
        if (in_quadrant(g.position(w), g.position(u), t)) enqueue(w, t);
      }
    }
  }

  while (!worklist.empty()) {
    auto [u, t] = worklist.front();
    worklist.pop_front();
    queued[u][static_cast<size_t>(zone_index(t))] = false;
    if (!g.alive(u)) continue;
    if (area.is_edge_node(u)) continue;  // pinned at (1,1,1,1)
    if (!tuples[u].is_safe(t)) continue;
    ++local.reevaluations;
    if (!must_flip(g, tuples, u, t)) continue;
    tuples[u].set_safe(t, false);
    ++local.flips;
    // u's flip can only affect neighbors w that see u inside Q_t(w).
    for (NodeId w : g.neighbors(u)) {
      if (in_quadrant(g.position(w), g.position(u), t)) enqueue(w, t);
    }
  }

  compute_anchors(g, tuples);
  if (stats != nullptr) *stats = local;
  return SafetyInfo(std::move(tuples));
}

}  // namespace spr
