#pragma once

/// \file slgf.h
/// SLGF: the safety-information LGF routing of the authors' earlier work
/// ([7], INFOCOM'08), reconstructed from this paper's Sections 2-3.
///
/// At node u with request zone type k toward d:
///   1. deliver when d is a neighbor;
///   2. *safe forwarding*: greedy among zone candidates v whose own zone
///      type k' toward d has S_{k'}(v) = 1 — by Theorem 1 such a path is
///      never blocked;
///   3. otherwise *enforced* greedy into the zone (unsafe candidates), which
///      may enter an unsafe area and hit a local minimum;
///   4. otherwise right-hand perimeter over untried nodes, as LGF.
///
/// SLGF2 (slgf2.h) replaces step 3's enforced entry with backup paths and
/// adds the shape-information rules.

#include "routing/router.h"
#include "safety/labeling.h"

namespace spr {

class SlgfRouter final : public Router {
 public:
  SlgfRouter(const UnitDiskGraph& g, const SafetyInfo& safety)
      : Router(g), safety_(safety) {}

  std::string_view name() const noexcept override { return "SLGF"; }

 protected:
  Decision select_successor(NodeId u, NodeId d,
                            PacketHeader& header) const override;
  std::unique_ptr<PacketHeader> make_header() const override;
  void reset_header(PacketHeader& header, NodeId s, NodeId d) const override;

 private:
  const SafetyInfo& safety_;
};

}  // namespace spr
