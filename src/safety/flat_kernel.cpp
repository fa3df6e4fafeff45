#include "safety/flat_kernel.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <vector>

#include "safety/labeling.h"
#include "safety/zone_scan.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace spr {

namespace {

/// Frontier size above which a demotion step runs as a synchronous parallel
/// round instead of a serial pop; below it, task dispatch costs more than
/// the evaluations.
constexpr std::size_t kParallelFrontier = 2048;
/// Source count above which promotion flood fills fan out.
constexpr std::size_t kParallelSources = 8;

std::uint64_t* alloc_words(Arena& arena, std::size_t words, bool zero) {
  auto* p = static_cast<std::uint64_t*>(
      arena.allocate(words * sizeof(std::uint64_t), alignof(std::uint64_t)));
  if (zero && words > 0) std::memset(p, 0, words * sizeof(std::uint64_t));
  return p;
}

/// Eligible to flip: alive and not pinned as an edge node.
bool can_flip(const UnitDiskGraph& g, const InterestArea* area, NodeId u) {
  return g.alive(u) && (area == nullptr || !area->is_edge_node(u));
}

}  // namespace

Arena& FlatLabeler::scratch() {
  // One retained block per thread: the first labeling epoch sizes it, every
  // later epoch on this thread bump-allocates out of the same memory.
  static thread_local Arena arena(1 << 20);
  return arena;
}

FlatLabeler::FlatLabeler(const UnitDiskGraph& g, Arena& arena,
                         std::size_t capacity)
    : g_(g),
      zones_(g.zones()),
      arena_(arena),
      n_(g.size()),
      node_words_((g.size() + 63) / 64),
      key_words_((4 * g.size() + 63) / 64),
      round_(ArenaAllocator<std::uint32_t>(arena)),
      flips_(ArenaAllocator<std::uint32_t>(arena)),
      raised_(ArenaAllocator<std::uint32_t>(arena)) {
  for (int ti = 0; ti < 4; ++ti) {
    safe_[ti] = alloc_words(arena, node_words_, false);
  }
  elig_ = alloc_words(arena, node_words_, true);
  pend_ = alloc_words(arena, key_words_, true);
  // Exact worst-case sizes: nothing here ever regrows, so the arena never
  // strands a stale block mid-epoch.
  fifo_cap_ = 4 * capacity;
  fifo_ = static_cast<std::uint32_t*>(
      arena.allocate(fifo_cap_ * sizeof(std::uint32_t), alignof(std::uint32_t)));
  flips_.reserve(fifo_cap_);
}

FlatLabeler::FlatLabeler(const UnitDiskGraph& g, const InterestArea* area,
                         Arena& arena)
    : FlatLabeler(g, arena, g.size()) {
  for (NodeId u = 0; u < n_; ++u) {
    if (can_flip(g, area, u)) elig_[u >> 6] |= 1ull << (u & 63);
  }
}

FlatLabeler::FlatLabeler(const UnitDiskGraph& g, const InterestArea* area,
                         Arena& arena, std::span<const NodeId> scope)
    : FlatLabeler(g, arena, scope.size()) {
  for (const NodeId u : scope) {
    SPR_DCHECK(u < n_, "scope node ", u, " outside the ", n_, "-node graph");
    if (can_flip(g, area, u)) elig_[u >> 6] |= 1ull << (u & 63);
  }
}

void FlatLabeler::start_all_safe() {
  for (int ti = 0; ti < 4; ++ti) {
    std::memset(safe_[ti], 0xff, node_words_ * sizeof(std::uint64_t));
  }
}

void FlatLabeler::start_from(const FlatLabeler& snapshot) {
  SPR_DCHECK(snapshot.n_ == n_, "snapshot of ", snapshot.n_,
             " nodes for a ", n_, "-node labeler");
  for (int ti = 0; ti < 4; ++ti) {
    std::memcpy(safe_[ti], snapshot.safe_[ti],
                node_words_ * sizeof(std::uint64_t));
  }
}

void FlatLabeler::start_from(const SafetyInfo& info) {
  for (int ti = 0; ti < 4; ++ti) {
    std::memset(safe_[ti], 0, node_words_ * sizeof(std::uint64_t));
  }
  for (NodeId u = 0; u < n_; ++u) {
    const SafetyTuple& tuple = info.tuple(u);
    for (int ti = 0; ti < 4; ++ti) {
      if (tuple.is_safe(kAllZoneTypes[ti])) set_safe_bit(u, ti);
    }
  }
}

bool FlatLabeler::must_flip(NodeId u, int ti) const noexcept {
  for (NodeId v : zones_.members(u, kAllZoneTypes[ti])) {
    if (safe_bit(v, ti)) return false;
  }
  return true;
}

void FlatLabeler::apply_flip(std::uint32_t k) {
  // Demotions are monotone: a pair flips 1 -> 0 exactly once.
  SPR_DCHECK(safe_bit(key_node(k), key_type(k)), "double flip of node ",
             key_node(k), " type ", key_type(k));
  flips_.push_back(k);
  mirror_demotion(key_node(k), key_type(k));
}

bool FlatLabeler::mirror_demotion(NodeId u, int ti) {
  if (!safe_bit(u, ti)) return false;
  clear_safe_bit(u, ti);
  // u's demotion can only affect the w that see u inside Q_t(w). Skip the
  // ones that can never flip (pinned, dead or out of scope) or already
  // have (monotone).
  for (NodeId w : zones_.observers(u, kAllZoneTypes[ti])) {
    if (!safe_bit(w, ti) || !eligible(w)) continue;
    enqueue(w, ti);
  }
  return true;
}

bool FlatLabeler::enqueue(NodeId u, int ti) {
  SPR_DCHECK(u < n_, "enqueue of out-of-range node ", u, " (n=", n_, ")");
  const std::uint32_t k = key(u, ti);
  std::uint64_t& word = pend_[k >> 6];
  const std::uint64_t bit = 1ull << (k & 63);
  if ((word & bit) != 0) return false;
  word |= bit;
  // The pend bits cap the ring at one slot per (node, type), so occupancy
  // can reach fifo_cap_ only through a pend/count mismatch.
  SPR_DCHECK(fifo_count_ < fifo_cap_, "FIFO ring overflow: count=",
             fifo_count_, " cap=", fifo_cap_, " at key ", k);
  std::size_t tail = fifo_head_ + fifo_count_;
  if (tail >= fifo_cap_) tail -= fifo_cap_;
  fifo_[tail] = k;
  ++fifo_count_;
  ++stats_.pushes;
  return true;
}

void FlatLabeler::initial_round(TaskPool* pool) {
  // The vacuous flips are a pure function of the topology — Q_t(u) holds no
  // neighbor at all — so evaluation order is irrelevant; the scan walks the
  // eligibility words (a scoped labeler skips the rest of the graph a word
  // at a time), fans out, and the flips apply in key order below. Blocks
  // of 16 node words cover 64 whole key words, so blocks never share an
  // output word.
  std::uint64_t* init = alloc_words(arena_, key_words_, true);
  auto scan = [&](std::size_t lo, std::size_t hi) {
    for_each_set_bit(elig_ + lo, hi - lo, [&](std::uint32_t bit) {
      const auto u = static_cast<NodeId>(lo * 64 + bit);
      for (int ti = 0; ti < 4; ++ti) {
        if (zones_.members(u, kAllZoneTypes[ti]).empty()) {
          const std::uint32_t k = key(u, ti);
          init[k >> 6] |= 1ull << (k & 63);
        }
      }
    });
  };
  parallel_for_blocked(pool, node_words_, 16, scan);
  for_each_set_bit(init, key_words_, [&](std::uint32_t k) {
    ++stats_.init_flips;
    apply_flip(k);
  });
}

std::size_t FlatLabeler::drain(TaskPool* pool) {
  const std::size_t before = flips_.size();
  while (fifo_count_ != 0) {
    if (pool != nullptr && fifo_count_ >= kParallelFrontier) {
      parallel_round(pool);
      continue;
    }
    const std::uint32_t k = fifo_[fifo_head_];
    if (++fifo_head_ >= fifo_cap_) fifo_head_ = 0;
    --fifo_count_;
    // Every ring slot was published with its pend bit set and nothing else
    // clears the bit; a clear bit here means the dedup discipline broke.
    SPR_DCHECK((pend_[k >> 6] >> (k & 63)) & 1u,
               "popped key ", k, " without its pend bit");
    pend_[k >> 6] &= ~(1ull << (k & 63));
    const NodeId u = key_node(k);
    const int ti = key_type(k);
    if (!eligible(u) || !safe_bit(u, ti)) continue;
    ++stats_.reevaluations;
    if (!must_flip(u, ti)) continue;
    apply_flip(k);
    ++stats_.flips;
  }
  return flips_.size() - before;
}

std::size_t FlatLabeler::parallel_round(TaskPool* pool) {
  // Synchronous round: evaluate the whole frontier against the pre-round
  // bits (a pure function, so any partition yields the same outcomes), then
  // apply the flips serially in frontier order. Monotonicity keeps a
  // pre-round must-flip valid after this round's earlier applications. The
  // pend bits of the frontier clear *before* the applications, so an
  // observer that evaluated "no flip" here is re-enqueued by the fan-out of
  // a later flip — no transitively-required flip is ever lost. Outcomes per
  // slot make the stats deterministic for every worker count.
  if (round_state_ == nullptr) {
    round_state_ = static_cast<std::uint8_t*>(arena_.allocate(fifo_cap_, 1));
  }
  if (round_.capacity() == 0) round_.reserve(fifo_cap_);
  round_.clear();
  for (std::size_t i = 0, pos = fifo_head_; i < fifo_count_; ++i) {
    round_.push_back(fifo_[pos]);
    if (++pos >= fifo_cap_) pos = 0;
  }
  fifo_head_ = 0;
  fifo_count_ = 0;
  for (const std::uint32_t k : round_) {
    pend_[k >> 6] &= ~(1ull << (k & 63));
  }
  const std::size_t m = round_.size();
  parallel_for_blocked(
      pool, m, 256, [&](std::size_t range_begin, std::size_t range_end) {
        for (std::size_t i = range_begin; i < range_end; ++i) {
          const std::uint32_t k = round_[i];
          const NodeId u = key_node(k);
          const int ti = key_type(k);
          std::uint8_t outcome = 0;  // guard skip
          if (eligible(u) && safe_bit(u, ti)) {
            outcome = must_flip(u, ti) ? 2 : 1;  // flip : re-eval, no flip
          }
          round_state_[i] = outcome;
        }
      });
  std::size_t flipped = 0;
  for (std::size_t i = 0; i < m; ++i) {
    if (round_state_[i] == 0) continue;
    ++stats_.reevaluations;
    if (round_state_[i] != 2) continue;
    apply_flip(round_[i]);
    ++stats_.flips;
    ++flipped;
  }
  return flipped;
}

std::span<const std::uint32_t> FlatLabeler::raise_clusters(
    std::span<const std::uint32_t> sources, TaskPool* pool) {
  raised_.clear();
  if (raised_.capacity() == 0) raised_.reserve(4 * n_);
  if (mark_ == nullptr) mark_ = alloc_words(arena_, key_words_, false);
  std::memset(mark_, 0, key_words_ * sizeof(std::uint64_t));

  // First-claim wins via fetch_or; a flood that loses a claim stops there
  // while the claimer keeps expanding, so the marked set is always the full
  // union of the touched clusters no matter how claims interleave.
  auto claim = [&](std::uint32_t k) {
    std::atomic_ref<std::uint64_t> word(mark_[k >> 6]);
    const std::uint64_t bit = 1ull << (k & 63);
    return (word.fetch_or(bit, std::memory_order_relaxed) & bit) == 0;
  };
  auto flood = [&](std::uint32_t src) {
    const NodeId su = key_node(src);
    const int ti = key_type(src);
    // Dead nodes hold fresh all-safe tuples, so the unsafe guard also
    // filters them.
    if (safe_bit(su, ti)) return;
    if (!claim(src)) return;
    static thread_local std::vector<NodeId> stack;
    stack.clear();
    stack.push_back(su);
    while (!stack.empty()) {
      const NodeId w = stack.back();
      stack.pop_back();
      for (NodeId v : g_.neighbors(w)) {
        if (safe_bit(v, ti)) continue;
        if (claim(key(v, ti))) stack.push_back(v);
      }
    }
  };
  if (pool != nullptr && sources.size() >= kParallelSources) {
    parallel_for_blocked(pool, sources.size(), 1,
                         [&](std::size_t range_begin, std::size_t range_end) {
                           for (std::size_t i = range_begin; i < range_end; ++i)
                             flood(sources[i]);
                         });
  } else {
    for (const std::uint32_t src : sources) flood(src);
  }

  // Collect ascending from the bit words — claim-order invariant — and
  // re-raise the bits.
  for_each_set_bit(mark_, key_words_, [&](std::uint32_t k) {
    set_safe_bit(key_node(k), key_type(k));
    raised_.push_back(k);
  });
  return {raised_.data(), raised_.size()};
}

namespace {

/// Explicit-stack frame of the anchor recursion: phase 0 enters a node
/// (scan + push children), phase 1 combines the children's resolved
/// anchors.
struct AnchorFrame {
  NodeId u;
  NodeId v_first;
  NodeId v_last;
  std::uint8_t phase;
};

constexpr std::uint8_t kUnvisited = 0;
constexpr std::uint8_t kVisiting = 1;
constexpr std::uint8_t kDone = 2;

}  // namespace

std::size_t FlatLabeler::compute_anchors(SafetyInfo& info, TaskPool* pool) {
  auto* state = static_cast<std::uint8_t*>(arena_.allocate(4 * n_, 1));
  std::memset(state, 0, 4 * n_);

  // The memoized first/last-path recursion of Algorithm 2 as an explicit-
  // stack DFS, exactly replicating the scalar recursion's call order (push
  // v_last below v_first so the first chain resolves first).
  auto resolve_from = [&](NodeId root, int ti, std::uint8_t* st) {
    const ZoneType t = kAllZoneTypes[ti];
    static thread_local std::vector<AnchorFrame> stack;
    stack.push_back(AnchorFrame{root, 0, 0, 0});
    while (!stack.empty()) {
      AnchorFrame& f = stack.back();
      const NodeId u = f.u;
      ShapeAnchors& a = info.tuple(u).anchors_for(t);
      if (f.phase == 1) {
        // Combine: first via the first-hit chain, last via the last-hit
        // chain. Unconditional, like the recursion after its calls return
        // (a cycle guard may have self-anchored u in between).
        const ShapeAnchors& fa = info.tuple(f.v_first).anchors_for(t);
        const ShapeAnchors& la = info.tuple(f.v_last).anchors_for(t);
        a.first = fa.first;
        a.first_pos = fa.first_pos;
        a.last = la.last;
        a.last_pos = la.last_pos;
        st[u] = kDone;
        stack.pop_back();
        continue;
      }
      if (st[u] == kDone) {
        stack.pop_back();
        continue;
      }
      if (st[u] == kVisiting) {
        // Cycle guard: anchor at self (measure-impossible, but defended).
        a.first = a.last = u;
        a.first_pos = a.last_pos = g_.position(u);
        st[u] = kDone;
        stack.pop_back();
        continue;
      }
      st[u] = kVisiting;
      FirstLastScan scan(g_.position(u), t);
      for (NodeId v : zones_.members(u, t)) {
        if (!safe_bit(v, ti)) scan.consider(v, g_.position(v));
      }
      if (scan.empty()) {
        a.first = a.last = u;
        a.first_pos = a.last_pos = g_.position(u);
        st[u] = kDone;
        stack.pop_back();
        continue;
      }
      const NodeId v_first = scan.first();
      const NodeId v_last = scan.last();
      f.v_first = v_first;
      f.v_last = v_last;
      f.phase = 1;
      // (`f` dangles after these pushes.)
      stack.push_back(AnchorFrame{v_last, 0, 0, 0});
      stack.push_back(AnchorFrame{v_first, 0, 0, 0});
    }
  };

  // One global ascending pass per type — the scalar oracle's schedule
  // verbatim — resolving each unsafe pair on first touch. An anchor chain
  // never leaves its type (first/last successors are type-t unsafe quadrant
  // members), so the four passes touch disjoint `st` rows and disjoint
  // anchor slots and fan out freely; within a pass the schedule is serial
  // either way, so the written bytes are identical for every worker count.
  std::size_t written[4] = {0, 0, 0, 0};
  auto run_type = [&](int ti) {
    std::uint8_t* st = state + static_cast<std::size_t>(ti) * n_;
    for (NodeId u = 0; u < n_; ++u) {
      if (safe_bit(u, ti)) continue;
      ++written[ti];
      if (st[u] != kDone) resolve_from(u, ti, st);
    }
  };
  parallel_for_blocked(pool, 4, 1,
                       [&](std::size_t range_begin, std::size_t range_end) {
                         for (std::size_t ti = range_begin; ti < range_end;
                              ++ti) {
                           run_type(static_cast<int>(ti));
                         }
                       });
  return written[0] + written[1] + written[2] + written[3];
}

}  // namespace spr
