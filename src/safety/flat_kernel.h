#pragma once

/// \file flat_kernel.h
/// The flat SoA safety-labeling kernel: the shared engine under
/// `compute_safety`, `update_safety_after_failures` and
/// `update_safety_after_moves`.
///
/// Layout (vs the scalar oracle's array-of-SafetyTuple worklist):
///
///  * **Quadrant-bucketed CSR** (graph/quadrant_csr.h, cached per topology
///    epoch on the graph): every "neighbor inside Q_t(u)" loop is a
///    contiguous id-range walk with zero geometry calls.
///  * **Bitset SoA statuses**: one packed 64-bit word array per zone type.
///    The fixpoint loop probes single bits of a 4·n/8-byte working set
///    instead of reading ~168-byte SafetyTuple records; eligibility
///    (in scope ∧ alive ∧ ¬edge-pinned) is a fifth word array; worklist
///    dedup and round masks are per-(node,type) keyed bit arrays. A scope
///    (the owned ids of a spatial tile, shard/sharded_network.h) narrows
///    eligibility and sizes the worklist, over the same global graph.
///  * **Arena-backed scratch**: every worklist, flip list, bitmap and
///    cluster walk allocates from a caller-owned Arena (util/arena.h) with
///    exact reservations, so a steady-state repin epoch does zero general
///    heap allocation inside the kernel.
///  * **Parallel sweeps** (optional TaskPool): the initialization round,
///    large demotion frontiers (evaluated as synchronous rounds — the flip
///    set of a round is data-determined and applied in key order),
///    promotion cluster raises (independent per-cluster flood fills whose
///    union is order-invariant) and the independent per-type anchor passes
///    of Algorithm 2 all fan out. Every merge is id-ordered, so results are
///    bit-identical (statuses *and* anchors) to the serial kernel and to
///    the scalar oracle `compute_safety_scalar` for every thread count;
///    tests enforce this.
///
/// (node, type) pairs travel as packed keys `u*4 + zone_index(t)`.

#include <bit>
#include <cstdint>
#include <span>

#include "deploy/interest_area.h"
#include "graph/quadrant_csr.h"
#include "graph/unit_disk.h"
#include "util/arena.h"

namespace spr {

class SafetyInfo;
class TaskPool;

/// Calls fn(i) for every set bit i of a bitmap of `words` 64-bit words,
/// ascending — a node bitmap, or a keyed one (`FlatLabeler::key`).
template <typename Fn>
void for_each_set_bit(const std::uint64_t* bits, std::size_t words, Fn&& fn) {
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const int b = std::countr_zero(word);
      word &= word - 1;
      fn(static_cast<std::uint32_t>(w * 64 + b));
    }
  }
}

/// Counters of one kernel run; `bench_micro` surfaces them so flat-vs-scalar
/// speedups are attributable to work saved, not just cycles.
struct LabelingStats {
  std::size_t init_flips = 0;      ///< vacuous-quadrant flips (round 0)
  std::size_t flips = 0;           ///< worklist demotions (1 -> 0)
  std::size_t pushes = 0;          ///< deduplicated worklist enqueues
  std::size_t reevaluations = 0;   ///< flip-condition evaluations
};

class FlatLabeler {
 public:
  static constexpr std::uint32_t key(NodeId u, int type_index) noexcept {
    return (u << 2) | static_cast<std::uint32_t>(type_index);
  }
  static constexpr NodeId key_node(std::uint32_t k) noexcept { return k >> 2; }
  static constexpr int key_type(std::uint32_t k) noexcept {
    return static_cast<int>(k & 3u);
  }

  /// Binds to one topology epoch; builds (or reuses) the graph's quadrant
  /// view and packs the eligibility bits. `area` may be null when only the
  /// anchor pass is needed. All scratch comes from `arena`; the caller
  /// resets the arena between epochs (see `scratch()`).
  FlatLabeler(const UnitDiskGraph& g, const InterestArea* area, Arena& arena);

  /// As above, restricted to `scope` (ids of `g`): only scope
  /// nodes are eligible, so only they are evaluated, enqueued or flipped,
  /// and the worklist and flip list hold 4 x scope.size() keys. Every other
  /// node contributes status bits only. A spatial tile binds one to the
  /// global graph with its owned ids as the scope, so it holds O(n/64)
  /// status words plus O(owned); an empty scope gives a labeler that only
  /// carries statuses (a snapshot, or the cluster raise).
  FlatLabeler(const UnitDiskGraph& g, const InterestArea* area, Arena& arena,
              std::span<const NodeId> scope);

  /// Statuses all safe — the fixpoint's starting point.
  void start_all_safe();
  /// Statuses from an existing labeling (incremental continuation).
  void start_from(const SafetyInfo& info);
  /// Statuses copied word for word from `snapshot`, a labeler over the same
  /// graph: the tiles of one epoch all start from one packed labeling.
  void start_from(const FlatLabeler& snapshot);

  bool safe_bit(NodeId u, int type_index) const noexcept {
    return (safe_[type_index][u >> 6] >> (u & 63)) & 1u;
  }

  /// Definition 1 against the current bits: no safe member in Q_t(u).
  bool must_flip(NodeId u, int type_index) const noexcept;

  /// The initialization round against the all-safe labeling: S_t(u) flips
  /// iff Q_t(u) holds no neighbor at all. Evaluation fans out over `pool`;
  /// flips apply in key order and enqueue their observers, exactly like the
  /// scalar oracle.
  void initial_round(TaskPool* pool);

  /// Demotion seed; deduplicated. Returns whether the pair was newly queued.
  bool enqueue(NodeId u, int type_index);

  std::size_t queued() const noexcept { return fifo_count_; }

  /// Runs the demotion worklist to the greatest fixpoint. Serial FIFO drain
  /// (breadth-first coalesces re-enqueues of a pending pair into one visit),
  /// or synchronous parallel rounds over `pool` while the frontier is
  /// large. Returns the number of flips this call performed.
  std::size_t drain(TaskPool* pool);

  /// Every key flipped 1 -> 0 so far (initial_round + drain), in
  /// application order; apply to SafetyInfo tuples at the API boundary.
  std::span<const std::uint32_t> flipped() const noexcept {
    return {flips_.data(), flips_.size()};
  }

  /// Applies an externally-decided demotion of (u, type) — the mirror of a
  /// flip the tile owning u performed: clears the bit and enqueues the
  /// eligible, still-safe observers exactly as a local flip would, but
  /// records no flip (the owner did). Returns false (no-op) when the bit is
  /// already clear.
  bool mirror_demotion(NodeId u, int type_index);

  /// Promotion: re-raises to safe the connected type-t unsafe cluster (full
  /// adjacency, unsafe members) of every given source key that is currently
  /// unsafe — the touched-cluster relabel. Independent flood fills fan out
  /// over `pool`; the raised set is the union of the touched clusters, so
  /// it is claim-order invariant. Returns the raised keys ascending. The
  /// raised pairs' safe bits are set; the caller re-seeds them for demotion
  /// and syncs the tuples.
  std::span<const std::uint32_t> raise_clusters(
      std::span<const std::uint32_t> sources, TaskPool* pool);

  /// Algorithm 2: recomputes the shape anchors of every currently-unsafe
  /// pair, written into `info` (statuses there must already match the
  /// bits). The four per-type passes touch disjoint state and anchor slots,
  /// so they fan out over `pool`; within a type the pass is the serial
  /// ascending schedule, so anchors are bit-identical either way. Returns
  /// pairs written.
  std::size_t compute_anchors(SafetyInfo& info, TaskPool* pool);

  const LabelingStats& stats() const noexcept { return stats_; }

  /// The kernel's per-thread scratch arena: reset at the start of every
  /// labeling epoch, so steady-state epochs reuse the retained high-water
  /// block and never touch the general heap.
  static Arena& scratch();

 private:
  bool eligible(NodeId u) const noexcept {
    return (elig_[u >> 6] >> (u & 63)) & 1u;
  }
  void clear_safe_bit(NodeId u, int type_index) noexcept {
    safe_[type_index][u >> 6] &= ~(1ull << (u & 63));
  }
  void set_safe_bit(NodeId u, int type_index) noexcept {
    safe_[type_index][u >> 6] |= 1ull << (u & 63);
  }
  FlatLabeler(const UnitDiskGraph& g, Arena& arena, std::size_t capacity);
  void apply_flip(std::uint32_t k);
  std::size_t parallel_round(TaskPool* pool);

  const UnitDiskGraph& g_;
  const QuadrantZones& zones_;
  Arena& arena_;
  std::size_t n_ = 0;
  std::size_t node_words_ = 0;
  std::size_t key_words_ = 0;
  std::uint64_t* safe_[4] = {nullptr, nullptr, nullptr, nullptr};
  std::uint64_t* elig_ = nullptr;   ///< in scope ∧ alive ∧ ¬edge-pinned
  std::uint64_t* pend_ = nullptr;   ///< worklist membership, keyed
  /// FIFO worklist as a fixed ring of 4 keys per eligible-or-scoped node:
  /// the pend bits cap the queue at one entry per (node, type), and only
  /// scope nodes are ever enqueued, so the ring never overflows or regrows.
  std::uint32_t* fifo_ = nullptr;
  std::size_t fifo_cap_ = 0;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_count_ = 0;
  ArenaVector<std::uint32_t> round_;       ///< parallel-round frontier
  std::uint8_t* round_state_ = nullptr;    ///< per-frontier-slot outcome
  ArenaVector<std::uint32_t> flips_;
  ArenaVector<std::uint32_t> raised_;
  std::uint64_t* mark_ = nullptr;  ///< keyed visited bits (raise / clusters)
  LabelingStats stats_;
};

}  // namespace spr
