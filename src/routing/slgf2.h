#pragma once

/// \file slgf2.h
/// SLGF2 (paper Algorithm 3): the safety-information routing with estimated
/// shape information. Phases, in order, at every intermediate node:
///
///   1. deliver when d is a neighbor;
///   2. *safe forwarding* — greedy among request-zone candidates v that are
///      safe toward d (S_{k'}(v) = 1 for v's own zone type k');
///   3. *either-hand superseding rule* — candidates falling in the
///      forbidden region of a visible unsafe-area estimate E_i(v) (the side
///      of the diagonal v -> (x_{v(1)}, y_{v(2)}) away from d) are avoided
///      whenever an alternative exists;
///   4. *backup-path forwarding* — when the zone holds no safe candidate,
///      forward to any neighbor that is safe in *some* type, selected by
///      the committed hand rule, until safe forwarding resumes (this
///      replaces SLGF's enforced entry into the unsafe area);
///   5. *perimeter routing* — either-hand, hand kept for the rest of the
///      walk, candidates confined to the rectangle covering the advertised
///      E areas (inflated by one radio range).
///
/// The hand is chosen once per detour from the destination's side of the
/// blocking estimate's diagonal and kept, which prevents oscillation.
///
/// `Slgf2Options` exposes each mechanism for the ablation bench.

#include "routing/router.h"
#include "safety/labeling.h"
#include "safety/shape.h"

namespace spr {

/// Feature toggles (all on = the paper's SLGF2).
struct Slgf2Options {
  bool use_either_hand = true;   ///< step 3 superseding rule
  bool use_backup_paths = true;  ///< step 4 (off = SLGF-style enforced entry)
  bool limit_perimeter = true;   ///< step 5 rectangle confinement
};

class Slgf2Router final : public Router {
 public:
  Slgf2Router(const UnitDiskGraph& g, const SafetyInfo& safety,
              Slgf2Options options = {})
      : Router(g), safety_(safety), options_(options) {}

  std::string_view name() const noexcept override { return "SLGF2"; }

  const Slgf2Options& options() const noexcept { return options_; }

 protected:
  Decision select_successor(NodeId u, NodeId d,
                            PacketHeader& header) const override;
  std::unique_ptr<PacketHeader> make_header() const override;
  void reset_header(PacketHeader& header, NodeId s, NodeId d) const override;

 private:
  struct Header;

  const SafetyInfo& safety_;
  Slgf2Options options_;
};

}  // namespace spr
