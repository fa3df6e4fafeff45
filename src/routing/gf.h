#pragma once

/// \file gf.h
/// GF: classic geographic greedy forwarding with perimeter recovery.
///
/// Greedy phase: forward to the neighbor strictly closest to d (progress
/// required). At a local minimum the router recovers by:
///
///  * kFace — GPSR-style right-hand face traversal of the Gabriel overlay
///    with the standard closer-than-entry exit rule and face changes on
///    crossings of the entry->destination segment; or
///  * kBoundHole — the paper's evaluation setup: if the stuck node lies on
///    a precomputed BOUNDHOLE boundary, walk that boundary (direction by
///    right hand w.r.t. the ray u->d) until a node closer to d than the
///    entry point, falling back to face traversal otherwise.
///
/// The recovery structures can be supplied lazily: with the provider
/// constructor the overlay/BOUNDHOLE are materialized only when the first
/// packet actually hits a local minimum, so hole-free greedy traffic never
/// pays for them (Network::make_router wires the network's memoized lazy
/// accessors in here).

#include <atomic>
#include <functional>

#include "graph/planar.h"
#include "routing/boundhole.h"
#include "routing/router.h"

namespace spr {

class GfRouter final : public Router {
 public:
  enum class Recovery { kFace, kBoundHole };

  /// Lazy sources for the recovery structures. The overlay provider must
  /// return a reference that outlives the router; the BOUNDHOLE provider may
  /// return null (face traversal is used instead).
  using OverlayProvider = std::function<const PlanarOverlay&()>;
  using BoundHoleProvider = std::function<const BoundHoleInfo*()>;

  /// Eager form: `overlay` must outlive the router. `boundhole` may be null
  /// for kFace.
  GfRouter(const UnitDiskGraph& g, const PlanarOverlay& overlay,
           const BoundHoleInfo* boundhole, Recovery recovery);

  /// Lazy form: providers are invoked on the first local minimum (at most
  /// once per thread; concurrent first hits may each invoke them, so
  /// providers must be thread-safe and memoized — Network's call_once
  /// accessors are). The resolved pointers are cached atomically, making
  /// concurrent route()/step() calls on one router instance safe.
  GfRouter(const UnitDiskGraph& g, OverlayProvider overlay,
           BoundHoleProvider boundhole, Recovery recovery);

  std::string_view name() const noexcept override {
    return recovery_ == Recovery::kFace ? "GF/face" : "GF";
  }

 protected:
  Decision select_successor(NodeId u, NodeId d,
                            PacketHeader& header) const override;
  std::unique_ptr<PacketHeader> make_header() const override;
  void reset_header(PacketHeader& header, NodeId s, NodeId d) const override;

 private:
  struct GfHeader;

  const PlanarOverlay& overlay() const;
  const BoundHoleInfo* boundhole() const;

  Decision face_step(NodeId u, NodeId d, GfHeader& h) const;
  Decision boundary_step_decision(NodeId u, NodeId d, GfHeader& h) const;

  OverlayProvider overlay_provider_;
  BoundHoleProvider boundhole_provider_;
  // Atomic lazy caches so concurrent steppers sharing this router (the
  // flight-record engine's parallel tick advance) can race into the first
  // local minimum safely: the providers are memoized behind call_once
  // (Network's lazy accessors), so concurrent resolvers store the same
  // pointer and hole-free traffic still never builds either structure.
  mutable std::atomic<const PlanarOverlay*> overlay_{nullptr};
  mutable std::atomic<const BoundHoleInfo*> boundhole_{nullptr};
  mutable std::atomic<bool> boundhole_resolved_{false};
  Recovery recovery_;
};

}  // namespace spr
