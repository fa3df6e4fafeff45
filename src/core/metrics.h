#pragma once

/// \file metrics.h
/// Aggregation of routing outcomes into the paper's evaluation metrics:
/// maximum hops (Fig. 5), average hops (Fig. 6), average path length
/// (Fig. 7), plus auxiliary delivery/stretch/phase statistics.

#include <cstddef>

#include "graph/graph_algos.h"
#include "routing/packet.h"
#include "stats/summary.h"
#include "util/fields.h"

namespace spr {

/// Streaming aggregate over many routed packets of one scheme.
struct RouteAggregate {
  Summary hops;            ///< delivered packets only
  Summary length;          ///< delivered packets only, meters
  Summary stretch_hops;    ///< hops / BFS-optimal hops
  Summary stretch_length;  ///< length / Dijkstra-optimal length
  Summary perimeter_hops;  ///< per delivered packet
  Summary backup_hops;     ///< per delivered packet
  Summary local_minima;    ///< per attempted packet
  /// Packets the configuration asked for. Can exceed `attempted`: a sweep
  /// cell that fails to draw a connected interior pair routes fewer packets
  /// than configured, and that shortfall must be visible, not silent.
  std::size_t requested = 0;
  std::size_t attempted = 0;
  std::size_t delivered = 0;

  double max_hops() const noexcept { return hops.empty() ? 0.0 : hops.max(); }
  double delivery_ratio() const noexcept {
    return attempted == 0 ? 0.0
                          : static_cast<double>(delivered) /
                                static_cast<double>(attempted);
  }
  /// Requested-but-never-routed packets (0 when every configured pair was
  /// drawn successfully).
  std::size_t pair_shortfall() const noexcept {
    return requested > attempted ? requested - attempted : 0;
  }

  /// Records one packet. `oracle_hop` / `oracle_len` are the BFS/Dijkstra
  /// optima for the pair (pass nullptr to skip stretch).
  void record(const PathResult& result, const ShortestPath* oracle_hop,
              const ShortestPath* oracle_len);

  /// Accumulates another aggregate (the sweep's cell-order reduction).
  void merge(const RouteAggregate& other) { merge_fields(*this, other); }

  bool operator==(const RouteAggregate&) const = default;

  /// Members in wire order, plus the report's derived values (util/fields.h).
  static constexpr std::tuple fields{
      Field{"requested", &RouteAggregate::requested},
      Field{"attempted", &RouteAggregate::attempted},
      Derived{"pair_shortfall", &RouteAggregate::pair_shortfall},
      Field{"delivered", &RouteAggregate::delivered},
      Derived{"delivery_ratio", &RouteAggregate::delivery_ratio},
      Field{"hops", &RouteAggregate::hops},
      Field{"length", &RouteAggregate::length},
      Field{"stretch_hops", &RouteAggregate::stretch_hops},
      Field{"stretch_length", &RouteAggregate::stretch_length},
      Field{"perimeter_hops", &RouteAggregate::perimeter_hops},
      Field{"backup_hops", &RouteAggregate::backup_hops},
      Field{"local_minima", &RouteAggregate::local_minima},
  };
};

}  // namespace spr
