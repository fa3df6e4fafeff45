#pragma once

/// \file lgf.h
/// LGF routing (paper Algorithm 1): request-zone-limited greedy forwarding
/// with right-hand perimeter recovery.
///
///   1. If d in N(u), forward to d.
///   2. Determine the request zone Z_k(u,d).
///   3. Greedy: pick v in Z_k(u,d) ∩ N(u) (closest to d).
///   4. Otherwise perimeter: rotate the ray u->d counter-clockwise until the
///      first *untried* node of N(u) is hit.
///
/// "Untried" is per packet: the header carries the set of visited nodes, so
/// perimeter steps never revisit and the walk terminates.

#include "routing/router.h"

namespace spr {

class LgfRouter final : public Router {
 public:
  explicit LgfRouter(const UnitDiskGraph& g) : Router(g) {}

  std::string_view name() const noexcept override { return "LGF"; }

 protected:
  Decision select_successor(NodeId u, NodeId d,
                            PacketHeader& header) const override;
  std::unique_ptr<PacketHeader> make_header() const override;
  void reset_header(PacketHeader& header, NodeId s, NodeId d) const override;
};

}  // namespace spr
