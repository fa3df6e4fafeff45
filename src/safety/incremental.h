#pragma once

/// \file incremental.h
/// Incremental maintenance of the safety information under node failures —
/// the dynamic hole causes of the paper's Section 1 (node failures, power
/// exhaustion, jamming, interference).
///
/// Key monotonicity fact: Definition 1's flip condition at u depends only
/// on the *presence of a safe type-t neighbor* in Q_t(u). Removing nodes
/// can remove such support but never create it, so after failures the old
/// fixpoint remains an over-approximation of safety: statuses only move
/// 1 -> 0. Re-running the worklist seeded with just the failed nodes'
/// neighborhoods therefore reaches the exact new fixpoint while touching
/// only the affected region — no global reconstruction (and no global
/// message storm in the distributed analogue).
///
/// Node *motion* changes edges in both directions: removals can only demote
/// (as under failures), while additions can *promote* — a node that gains a
/// safe quadrant supporter may flip 0 -> 1, and that promotion can cascade.
/// `update_safety_after_moves` handles both: promotions are seeded by
/// optimistically re-raising the connected unsafe clusters touched by the
/// move frontier back to safe (only the touched cluster is relabeled — the
/// message-passing cluster-relabeling idea of the parallel Swendsen-Wang
/// algorithms), which restores the over-approximation invariant; the
/// standard demotion worklist then closes over exactly the affected region
/// and lands on the same greatest fixpoint `compute_safety` computes.

#include <cstdint>
#include <vector>

#include "deploy/interest_area.h"
#include "graph/unit_disk.h"
#include "safety/labeling.h"

namespace spr {

/// Statistics of one incremental update.
struct IncrementalStats {
  std::size_t seeds = 0;            ///< (node,type) pairs initially enqueued
  std::size_t reevaluations = 0;    ///< flip-condition evaluations performed
  std::size_t flips = 0;            ///< demotions: statuses that went 1 -> 0
  std::size_t promotions = 0;       ///< statuses that went 0 -> 1 (moves only)
  std::size_t anchor_recomputes = 0;///< nodes whose anchors were rebuilt
  /// Peak scratch-arena bytes of *this* update: the arena is monotonic and
  /// reset when the update starts, so its end-of-update `bytes_allocated()`
  /// is the update's own high water. Deterministic (unlike the arena's
  /// lifetime `high_water()`, which depends on what else ran on the
  /// thread), so reports may carry it byte-stably. Once the retained block
  /// covers it, later identical epochs never touch the general heap.
  std::size_t arena_high_water = 0;

  bool operator==(const IncrementalStats&) const = default;
};

/// Updates `info` (computed for the graph *before* the failures) to the
/// exact fixpoint of `degraded`, which must be the same node set with some
/// nodes dead (`UnitDiskGraph::with_failures`). `area` is the interest area
/// of the degraded graph. Returns what the update touched.
///
/// Postcondition: `info == compute_safety(degraded, area)` up to the
/// anchors of unaffected nodes, which are recomputed only where reachable
/// from a change (tests assert full equality of statuses and anchors).
///
/// Runs on the flat kernel (safety/flat_kernel.h): statuses pack into bits,
/// the seed set comes from one spatial-grid disc query per failed node, and
/// all scratch is arena-retained, so steady-state waves stay off the heap.
/// With a `pool` large frontiers and the anchor pass fan out; results are
/// bit-identical for every worker count.
IncrementalStats update_safety_after_failures(const UnitDiskGraph& degraded,
                                              const InterestArea& area,
                                              const std::vector<NodeId>& failed,
                                              SafetyInfo& info,
                                              TaskPool* pool = nullptr);

/// Updates `info` (the fixpoint of `before` / `area_before`) to the exact
/// fixpoint of `after` / `area_after`, where `after` is the same node set
/// with some nodes moved (`UnitDiskGraph::with_moves` — same aliveness,
/// edges added and removed). Bidirectional:
///
///  * every still-unsafe (node, type) whose quadrant gained an old-safe
///    member — an added edge, or a surviving edge whose relative quadrant
///    flipped — or that was newly pinned as an edge node is a *promotion
///    source*: its connected type-t unsafe cluster (new-graph edges) is
///    optimistically re-raised to safe, which provably covers every pair
///    the new fixpoint promotes;
///  * every pair that lost a quadrant member, left the edge-node band, or
///    was optimistically raised seeds the standard demotion worklist,
///    which closes downward onto the greatest fixpoint.
///
/// Postcondition: `info == compute_safety(after, area_after)`, statuses and
/// anchors (tests assert full equality at every staged-mobility epoch).
///
/// The delta walk (`mark_move_frontier`), its bitmaps, the cluster raises,
/// the demotion worklist and the anchor pass all run with arena-retained
/// scratch — a steady-state repin epoch does no general-heap allocation
/// inside the updater. With a `pool` the delta walk, the cluster raises,
/// large frontiers and the anchor pass fan out; results are bit-identical
/// for every worker count.
IncrementalStats update_safety_after_moves(const UnitDiskGraph& before,
                                           const InterestArea& area_before,
                                           const UnitDiskGraph& after,
                                           const InterestArea& area_after,
                                           SafetyInfo& info,
                                           TaskPool* pool = nullptr);

/// The failure updater's seed rule, shared with
/// `ShardedNetwork::apply_failures`: every alive node of `degraded` within
/// radio range of a casualty's position, ascending and deduplicated, into
/// `out` (cleared first). Positions are retained for dead nodes, so each
/// casualty is one disc query on the spatial grid rather than a scan of all
/// n nodes. Out-of-range casualty ids are skipped.
void failure_seed_nodes(const UnitDiskGraph& degraded,
                        const std::vector<NodeId>& failed,
                        std::vector<NodeId>& out);

/// The move frontier of one mobility epoch: the delta walk shared by
/// `update_safety_after_moves` and `ShardedNetwork::apply_moves`. `before` /
/// `area_before` and `after` / `area_after` are the epoch's two snapshots
/// and `old_info` the labeling of `before`. Sets bits in two key-indexed
/// bitmaps (`FlatLabeler::key`, 4·n bits each, zeroed by the caller):
///
///  * `demote_seed` — every pair that lost a quadrant member (a vanished
///    edge, or a surviving neighbor whose relative quadrant flipped away)
///    or left the edge-node band;
///  * `promote_src` — every pair that is still unsafe and gained an
///    old-safe quadrant member, or entered the band.
///
/// `touched` (n bits, zeroed) is scratch for the nodes whose flip inputs
/// may have changed: a node that moved, or an old or new neighbor of one
/// (the caller owns it, so the monolithic updater keeps it in its arena).
/// Every other node skips the walk, so localized motion costs
/// O(moved · degree). A touched node compares its four quadrant buckets
/// in both snapshots' views (`UnitDiskGraph::zones`, built here if absent)
/// and writes only its own four keys, so the walk fans out over `pool` in
/// 1024-node blocks — 64 key words each, never shared — with bitmaps
/// identical for every worker count.
void mark_move_frontier(const UnitDiskGraph& before,
                        const InterestArea& area_before,
                        const UnitDiskGraph& after,
                        const InterestArea& area_after,
                        const SafetyInfo& old_info, std::uint64_t* touched,
                        std::uint64_t* demote_seed,
                        std::uint64_t* promote_src, TaskPool* pool);

/// The promotion phase of a mobility epoch, shared by
/// `update_safety_after_moves` and `ShardedNetwork::apply_moves`: re-raises
/// to safe the connected type-t unsafe cluster (full adjacency) of every
/// key set in `promote_src` (`mark_move_frontier`'s bitmap) on `labeler`,
/// whose status bits must match `info`. Each raised pair goes safe in
/// `info`, sheds its stale anchors (safe pairs carry none) and gets its
/// key set in `demote_seed`, so the demotion worklist re-examines it.
/// `arena` holds the source list. Returns the number of raised pairs.
std::size_t raise_touched_clusters(FlatLabeler& labeler,
                                   const std::uint64_t* promote_src,
                                   std::uint64_t* demote_seed,
                                   SafetyInfo& info, Arena& arena,
                                   TaskPool* pool);

}  // namespace spr
