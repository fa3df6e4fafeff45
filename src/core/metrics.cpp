#include "core/metrics.h"

namespace spr {

void RouteAggregate::record(const PathResult& result,
                            const ShortestPath* oracle_hop,
                            const ShortestPath* oracle_len) {
  ++attempted;
  local_minima.add(static_cast<double>(result.local_minima));
  if (!result.delivered()) return;
  ++delivered;
  hops.add(static_cast<double>(result.hops()));
  length.add(result.length);
  perimeter_hops.add(static_cast<double>(result.perimeter_hops()));
  backup_hops.add(static_cast<double>(result.backup_hops()));
  if (oracle_hop != nullptr && oracle_hop->hops() > 0) {
    stretch_hops.add(static_cast<double>(result.hops()) /
                     static_cast<double>(oracle_hop->hops()));
  }
  if (oracle_len != nullptr && oracle_len->length > 0.0) {
    stretch_length.add(result.length / oracle_len->length);
  }
}

}  // namespace spr
