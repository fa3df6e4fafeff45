#include "safety/incremental.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "graph/spatial_grid.h"
#include "util/arena.h"
#include "util/task_pool.h"

namespace spr {

namespace {

std::uint64_t* zeroed_words(Arena& arena, std::size_t words) {
  auto* p = static_cast<std::uint64_t*>(
      arena.allocate(words * sizeof(std::uint64_t), alignof(std::uint64_t)));
  std::memset(p, 0, words * sizeof(std::uint64_t));
  return p;
}

void set_bit(std::uint64_t* bits, std::uint32_t i) {
  bits[i >> 6] |= 1ull << (i & 63);
}

bool test_bit(const std::uint64_t* bits, std::uint32_t i) {
  return (bits[i >> 6] >> (i & 63)) & 1u;
}

/// Replays the kernel's demotions into the tuple form.
void apply_flips(const FlatLabeler& labeler, SafetyInfo& info) {
  for (const std::uint32_t k : labeler.flipped()) {
    info.tuple(FlatLabeler::key_node(k))
        .set_safe(kAllZoneTypes[FlatLabeler::key_type(k)], false);
  }
}

}  // namespace

void failure_seed_nodes(const UnitDiskGraph& degraded,
                        const std::vector<NodeId>& failed,
                        std::vector<NodeId>& out) {
  const std::size_t n = degraded.size();
  out.clear();
  for (const NodeId f : failed) {
    if (f >= n) continue;
    degraded.grid().query_radius(degraded.position(f), degraded.range(), f,
                                 out);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  out.erase(std::remove_if(out.begin(), out.end(),
                           [&](NodeId u) { return !degraded.alive(u); }),
            out.end());
}

std::size_t raise_touched_clusters(FlatLabeler& labeler,
                                   const std::uint64_t* promote_src,
                                   std::uint64_t* demote_seed,
                                   SafetyInfo& info, Arena& arena,
                                   TaskPool* pool) {
  const std::size_t key_words = (4 * info.size() + 63) / 64;
  ArenaVector<std::uint32_t> sources{ArenaAllocator<std::uint32_t>(arena)};
  sources.reserve(4 * info.size());
  for_each_set_bit(promote_src, key_words,
                   [&](std::uint32_t k) { sources.push_back(k); });
  std::size_t raised = 0;
  for (const std::uint32_t k :
       labeler.raise_clusters({sources.data(), sources.size()}, pool)) {
    const NodeId u = FlatLabeler::key_node(k);
    const ZoneType t = kAllZoneTypes[FlatLabeler::key_type(k)];
    info.tuple(u).set_safe(t, true);
    info.tuple(u).anchors_for(t) = ShapeAnchors{};
    set_bit(demote_seed, k);
    ++raised;
  }
  return raised;
}

void mark_move_frontier(const UnitDiskGraph& before,
                        const InterestArea& area_before,
                        const UnitDiskGraph& after,
                        const InterestArea& area_after,
                        const SafetyInfo& old_info, std::uint64_t* touched,
                        std::uint64_t* demote_seed,
                        std::uint64_t* promote_src, TaskPool* pool) {
  const std::size_t n = after.size();

  // Pre-pass: a node's flip inputs can only have changed if it moved, a
  // neighbor (old or new) moved, or its adjacency changed — and adjacency
  // only changes at a moved endpoint.
  for (NodeId u = 0; u < n; ++u) {
    if (before.position(u) == after.position(u)) continue;
    set_bit(touched, u);
    for (NodeId v : before.neighbors(u)) set_bit(touched, v);
    for (NodeId v : after.neighbors(u)) set_bit(touched, v);
  }

  // A pair's flip condition can only change when a node joined or left its
  // quadrant: an edge appeared or disappeared, or a surviving neighbor's
  // relative quadrant flipped. Both snapshots' quadrant views list exactly
  // those memberships, ascending, so one tandem walk per (node, type) of
  // the old and new bucket sees every case without a position load.
  // Losing a member can demote. Gaining one matters only for a pair that is
  // still unsafe (a safe pair has nothing to raise) and only when the
  // gained member is *old-safe* in that type: a promotion chain in the new
  // fixpoint ascends through old-unsafe nodes of one connected cluster and
  // must terminate at a pair whose quadrant gained an old-safe supporter
  // (an old-unsafe gain supports nothing by itself, and a promoted gain
  // lies in the same cluster as its own terminal source). Edge-band churn
  // is the other input: a pair that left the band loses its pin
  // (demotable), one that entered it is pinned safe (a promotion source for
  // its dependents while still unsafe).
  const QuadrantZones& old_zones = before.zones(pool);
  const QuadrantZones& new_zones = after.zones(pool);
  parallel_for_blocked(pool, n, 1024, [&](std::size_t lo, std::size_t hi) {
    for (NodeId u = static_cast<NodeId>(lo); u < hi; ++u) {
      if (!after.alive(u)) continue;
      const SafetyTuple& own = old_info.tuple(u);
      if (test_bit(touched, u)) {
        for (int ti = 0; ti < 4; ++ti) {
          const ZoneType t = kAllZoneTypes[ti];
          const auto old_q = old_zones.members(u, t);
          const auto new_q = new_zones.members(u, t);
          const bool unsafe = !own.is_safe(t);
          bool lost = false;
          bool gained = false;
          std::size_t oi = 0, ni = 0;
          while (oi < old_q.size() || ni < new_q.size()) {
            if (ni == new_q.size() ||
                (oi < old_q.size() && old_q[oi] < new_q[ni])) {
              lost = true;
              ++oi;
            } else if (oi == old_q.size() || new_q[ni] < old_q[oi]) {
              gained = gained || (unsafe && old_info.is_safe(new_q[ni], t));
              ++ni;
            } else {
              ++oi;
              ++ni;
            }
          }
          if (lost) set_bit(demote_seed, FlatLabeler::key(u, ti));
          if (gained) set_bit(promote_src, FlatLabeler::key(u, ti));
        }
      }
      const bool was_edge = area_before.is_edge_node(u);
      const bool is_edge = area_after.is_edge_node(u);
      if (was_edge == is_edge) continue;
      for (int ti = 0; ti < 4; ++ti) {
        if (was_edge) {
          set_bit(demote_seed, FlatLabeler::key(u, ti));
        } else if (!own.is_safe(kAllZoneTypes[ti])) {
          // Newly pinned: the cluster raise re-raises the pair itself, and
          // dependents may gain support through the promotion cascade.
          set_bit(promote_src, FlatLabeler::key(u, ti));
        }
      }
    }
  });
}

IncrementalStats update_safety_after_failures(const UnitDiskGraph& degraded,
                                              const InterestArea& area,
                                              const std::vector<NodeId>& failed,
                                              SafetyInfo& info,
                                              TaskPool* pool) {
  IncrementalStats stats;
  const std::size_t n = degraded.size();

  // Dead nodes revert to the fresh tuple (their state is meaningless; this
  // matches compute_safety on the degraded graph exactly).
  for (NodeId f : failed) {
    if (f < n) info.tuple(f) = SafetyTuple{};
  }

  degraded.zones(pool);  // patched forward by with_failures when available
  Arena& arena = FlatLabeler::scratch();
  arena.reset();
  FlatLabeler labeler(degraded, &area, arena);
  labeler.start_from(info);

  // Seed: every alive node that could have had a failed node in one of its
  // quadrants — i.e. within radio range of a failed position.
  static thread_local std::vector<NodeId> near;
  failure_seed_nodes(degraded, failed, near);
  for (NodeId u : near) {
    for (int ti = 0; ti < 4; ++ti) {
      if (labeler.enqueue(u, ti)) ++stats.seeds;
    }
  }

  // Monotone continuation: losing neighbors can only remove support, so
  // the old fixpoint bounds the new one from above and the worklist closes
  // over exactly the region the failures influence.
  labeler.drain(pool);
  stats.reevaluations = labeler.stats().reevaluations;
  stats.flips = labeler.stats().flips;
  apply_flips(labeler, info);

  stats.anchor_recomputes = labeler.compute_anchors(info, pool);
  stats.arena_high_water = arena.bytes_allocated();
  return stats;
}

IncrementalStats update_safety_after_moves(const UnitDiskGraph& before,
                                           const InterestArea& area_before,
                                           const UnitDiskGraph& after,
                                           const InterestArea& area_after,
                                           SafetyInfo& info, TaskPool* pool) {
  IncrementalStats stats;
  const std::size_t n = after.size();

  after.zones(pool);  // patched forward by with_moves when available
  Arena& arena = FlatLabeler::scratch();
  arena.reset();
  FlatLabeler labeler(after, &area_after, arena);
  labeler.start_from(info);

  const std::size_t node_words = (n + 63) / 64;
  const std::size_t key_words = (4 * n + 63) / 64;

  // Phase 1 — the move frontier, per (node, type): demotion seeds where a
  // quadrant lost a member or a pin, promotion sources where a still-unsafe
  // pair gained an old-safe supporter or a pin. The labeler was just
  // started from `info`, so the tuples hold exactly its bits.
  std::uint64_t* demote_seed = zeroed_words(arena, key_words);
  std::uint64_t* promote_src = zeroed_words(arena, key_words);
  std::uint64_t* touched = zeroed_words(arena, node_words);
  mark_move_frontier(before, area_before, after, area_after, info, touched,
                     demote_seed, promote_src, pool);

  // Phase 2 — promotion: re-raise to safe the connected type-t unsafe
  // cluster (new-graph edges) of every unsafe promotion source. Any pair
  // the new fixpoint promotes chains, through type-t support (which is
  // acyclic — a supporter lies strictly inside the quadrant direction), to
  // a source inside its own cluster, so the raised state is again an
  // over-approximation of the new fixpoint and the demotion worklist below
  // converges onto it exactly.
  stats.promotions = raise_touched_clusters(labeler, promote_src, demote_seed,
                                            info, arena, pool);

  // Phase 3 — demotion worklist on the new graph, exactly the failure
  // updater's monotone continuation, seeded with every pair whose support
  // shrank, lost its pin, or was optimistically raised.
  for_each_set_bit(demote_seed, key_words, [&](std::uint32_t k) {
    const NodeId u = FlatLabeler::key_node(k);
    if (!after.alive(u)) return;
    if (labeler.enqueue(u, FlatLabeler::key_type(k))) ++stats.seeds;
  });

  labeler.drain(pool);
  stats.reevaluations = labeler.stats().reevaluations;
  stats.flips = labeler.stats().flips;
  apply_flips(labeler, info);

  stats.anchor_recomputes = labeler.compute_anchors(info, pool);
  stats.arena_high_water = arena.bytes_allocated();
  return stats;
}

}  // namespace spr
