#pragma once

/// \file labeling.h
/// Centralized (reference) construction of the safety information model:
/// Definition 1's labeling fixpoint and Algorithm 2's shape anchors. The
/// distributed construction (safety/distributed.h) must converge to exactly
/// this result; tests enforce that.

#include <vector>

#include "deploy/interest_area.h"
#include "graph/unit_disk.h"
#include "safety/flat_kernel.h"
#include "safety/tuple.h"

namespace spr {

class TaskPool;

/// The safety information of a whole network.
class SafetyInfo {
 public:
  SafetyInfo() = default;
  explicit SafetyInfo(std::vector<SafetyTuple> tuples) : tuples_(std::move(tuples)) {}

  const SafetyTuple& tuple(NodeId u) const noexcept { return tuples_[u]; }
  SafetyTuple& tuple(NodeId u) noexcept { return tuples_[u]; }
  std::size_t size() const noexcept { return tuples_.size(); }

  bool is_safe(NodeId u, ZoneType t) const noexcept { return tuples_[u].is_safe(t); }

  /// Count of nodes unsafe in at least one type.
  std::size_t unsafe_node_count() const noexcept;

  bool operator==(const SafetyInfo&) const noexcept = default;

 private:
  std::vector<SafetyTuple> tuples_;
};

/// Runs Definition 1 to its unique fixpoint (worklist algorithm; the flips
/// are monotone 1->0, so any fair order yields the same result), pinning
/// edge nodes of `area` at (1,1,1,1), then computes the anchors u(1)/u(2)
/// per Algorithm 2 for every unsafe (node, type).
///
/// Runs on the flat kernel (safety/flat_kernel.h): the graph's cached
/// quadrant CSR, packed status bits and arena scratch. With a `build_pool`
/// the initialization round, large demotion frontiers and the anchor pass
/// fan out; every merge is id-ordered, so the result is bit-identical —
/// statuses and anchors — for every thread count and to
/// `compute_safety_scalar` (tests enforce both). Callers running *on* a
/// pool worker must pass nullptr (see UnitDiskGraph). `stats`, when
/// non-null, receives the kernel's work counters.
SafetyInfo compute_safety(const UnitDiskGraph& g, const InterestArea& area,
                          TaskPool* build_pool = nullptr,
                          LabelingStats* stats = nullptr);

/// The scalar reference path: per-node SafetyTuple records, geometry tests
/// in every inner loop, recursive anchor resolution — the shape the flat
/// kernel is benchmarked against and the oracle its bit-identity tests
/// compare to. Always serial.
SafetyInfo compute_safety_scalar(const UnitDiskGraph& g,
                                 const InterestArea& area,
                                 LabelingStats* stats = nullptr);

/// Recomputes the shape anchors u(1)/u(2) for every unsafe (node, type) of
/// `info` from its current statuses (Algorithm 2 step 3). Used by the
/// incremental updater after statuses changed; `compute_safety` calls the
/// same code internally. Runs on the flat kernel; with a `pool` the
/// per-cluster resolutions fan out (bit-identical results). Returns the
/// number of (node,type) anchor sets written.
std::size_t recompute_all_anchors(const UnitDiskGraph& g, SafetyInfo& info,
                                  TaskPool* pool = nullptr);

}  // namespace spr
