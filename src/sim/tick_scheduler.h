#pragma once

/// \file tick_scheduler.h
/// TickBuckets: the bucketed tick scheduler behind StreamSim's flight-record
/// mode. When every in-flight copy advances on the same `hop_delay`, the
/// per-hop heap events of a discrete-event queue are pure overhead: at 10^5
/// concurrent flights a run performs hundreds of millions of
/// `push_heap`/`pop_heap` operations whose pop order carries no information
/// (flights are independent between topology events). TickBuckets collapses
/// them: all flights due at the same *exact* double timestamp share one
/// bucket, and the owning EventQueue carries a single tick event per bucket
/// — so the heap holds sparse control events (injections, failure waves,
/// mobility re-pins) plus one entry per distinct tick time, not one per
/// flight-hop.
///
/// Equivalence contract (property-tested against a per-item EventQueue in
/// tests/sim_tick_scheduler_test.cpp): scheduling item i at time t and
/// draining tick events through `take` advances exactly the items a
/// per-item heap would advance at t, in schedule order within the instant.
/// Times are keyed on their exact bit pattern — two flights share a bucket
/// iff their per-hop accumulation chains produced bit-equal doubles, which
/// is precisely when the reference heap would pop them at an equal `time`.
/// Heap tie order relative to control events is preserved by construction:
/// the tick event for a bucket is pushed when the bucket is *created*, and
/// the owner creates it no later than the next control-event push after
/// the pop at which the first per-hop event for that time would have been
/// pushed, so it carries an equivalent FIFO sequence number in the shared
/// EventQueue.
///
/// Buckets and their id vectors are recycled through a free list: after the
/// initial ramp-up the scheduler performs zero steady-state allocation.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"
#include "util/flat_map.h"

namespace spr {

class TickBuckets {
 public:
  /// Result of `schedule`: when `created` is set the caller must push one
  /// tick event for this time into its event queue, carrying `slot`.
  struct Scheduled {
    bool created = false;
    std::uint32_t slot = 0;
  };

  /// Pre-sizes the time index for about `expected` live buckets.
  explicit TickBuckets(std::size_t expected = 0) : index_(expected) {}

  /// Adds `id` to the batch due at exactly `when` (bit-pattern keyed).
  /// Creates the bucket when no live one exists for that time — including
  /// when an earlier bucket at the same timestamp was already taken, which
  /// mirrors the reference heap (a zero-delay reschedule lands behind the
  /// current instant in FIFO order, not inside it).
  Scheduled schedule(double when, std::uint32_t id) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(when);
    std::uint32_t& slot = index_.find_or_insert(bits, kNoBucket);
    // The index is never erased from, so `slot` can be stale: the bucket it
    // named may have been taken and recycled for a different time. A bucket
    // is joinable only if it still owns these exact time bits and has not
    // fired yet.
    if (slot != kNoBucket && buckets_[slot].time_bits == bits &&
        !buckets_[slot].taken) {
      buckets_[slot].ids.push_back(id);
      return {false, slot};
    }
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(buckets_.size());
      buckets_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
      buckets_[slot].taken = false;
    }
    buckets_[slot].time_bits = bits;
    buckets_[slot].ids.push_back(id);
    return {true, slot};
  }

  /// The batch for a fired tick event, in schedule order. The returned
  /// vector stays valid until the next `take`; the bucket is recycled
  /// immediately, so scheduling into the same timestamp afterwards starts
  /// a fresh bucket.
  std::vector<std::uint32_t>& take(std::uint32_t slot) {
    SPR_CHECK(slot < buckets_.size() && !buckets_[slot].taken,
              "TickBuckets::take: slot ", slot, " not live");
    Bucket& bucket = buckets_[slot];
    current_.clear();
    current_.swap(bucket.ids);  // old current_ capacity recycles into the slot
    bucket.taken = true;
    free_.push_back(slot);
    // Quiescence compaction: with no live bucket left, stale index entries
    // serve nothing — drop them so long runs with drain gaps stay small.
    if (free_.size() == buckets_.size()) index_.clear();
    return current_;
  }

  /// Ids scheduled and not yet taken (live flights on the ring).
  std::size_t pending() const noexcept {
    std::size_t n = 0;
    for (const Bucket& bucket : buckets_) {
      if (!bucket.taken) n += bucket.ids.size();
    }
    return n;
  }

  /// Live (not yet taken) buckets.
  std::size_t live_buckets() const noexcept {
    return buckets_.size() - free_.size();
  }

 private:
  static constexpr std::uint32_t kNoBucket = ~std::uint32_t{0};

  struct Bucket {
    std::vector<std::uint32_t> ids;
    std::uint64_t time_bits = 0;  ///< exact time this bucket currently owns
    bool taken = false;
  };

  FlatMap64<std::uint32_t> index_;  ///< exact time bits -> bucket slot
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> current_;  ///< last taken batch
};

}  // namespace spr
