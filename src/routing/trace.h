#pragma once

/// \file trace.h
/// Post-hoc analysis of routed paths: per-hop records (phase, geometric
/// progress toward the destination, hop length) and detour segmentation.
/// It explains *where* a path lost its straightness; the tests use it to
/// assert phase semantics.

#include <string>
#include <vector>

#include "graph/unit_disk.h"
#include "routing/packet.h"

namespace spr {

/// One hop of a trace.
struct HopRecord {
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  HopPhase phase = HopPhase::kGreedy;
  double hop_length = 0.0;   ///< meters traveled on this hop
  double progress = 0.0;     ///< reduction of distance-to-d (negative = regress)
};

/// A maximal run of consecutive non-greedy hops (one detour episode).
struct DetourSegment {
  std::size_t first_hop = 0;  ///< index into the trace
  std::size_t hop_count = 0;
  double length = 0.0;        ///< meters spent in the episode
  double net_progress = 0.0;  ///< distance-to-d change over the episode
};

/// Full trace of one routed packet.
class RouteTrace {
 public:
  /// Builds the trace from a result over the graph it was routed on.
  RouteTrace(const UnitDiskGraph& g, const PathResult& result, NodeId dest);

  const std::vector<HopRecord>& hops() const noexcept { return hops_; }
  const std::vector<DetourSegment>& detours() const noexcept { return detours_; }

  /// Total meters spent in non-greedy episodes.
  double detour_length() const noexcept;

  /// Largest distance-to-destination regression over any single hop.
  double worst_regression() const noexcept;

  /// Straightness index: straight-line distance / path length in [0,1]
  /// (1 = perfectly straight); 1 for empty paths.
  double straightness() const noexcept { return straightness_; }

  /// Human-readable rendering, one line per hop.
  std::string to_string() const;

  /// CSV with header: hop,from,to,phase,length,progress.
  std::string to_csv() const;

 private:
  std::vector<HopRecord> hops_;
  std::vector<DetourSegment> detours_;
  double straightness_ = 1.0;
};

}  // namespace spr
