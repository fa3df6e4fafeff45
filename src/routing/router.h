#pragma once

/// \file router.h
/// The router interface and the shared hop-by-hop walk machinery. Every
/// scheme in the paper is expressed as a *successor selection* at the
/// current node using only local knowledge (N(u), positions of u/d, and
/// whatever state the packet header carries); the walk itself — TTL, path
/// recording, phase accounting — lives in RouteStepper, a public state
/// machine that advances one hop per `step()` call.
///
/// `route` is a thin driver that steps a stepper to completion;
/// discrete-event simulators (sim/stream_sim.h) instead keep steppers for
/// many in-flight packets and interleave their hops on one timeline,
/// observing topology changes between hops. Both produce bit-identical
/// results for an unchanged topology (tests enforce this per scheme).
///
/// Batching: `route_batch` routes a span of (s, d) pairs and is always
/// equivalent to looping `route`. The default implementation is exactly
/// that loop; schemes override it (via `route_batch_reusing_headers`) to
/// hoist per-packet setup — the header heap allocation, the O(n) visited
/// buffers, path capacity — out of the inner loop, which is the hot path
/// of every sweep cell.

#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/unit_disk.h"
#include "routing/packet.h"

namespace spr {

class RouteStepper;

/// Mutable per-packet header state threaded through successor selections.
/// Routers downcast to their own header type.
class PacketHeader {
 public:
  virtual ~PacketHeader() = default;
};

/// A geographic routing scheme.
class Router {
 public:
  virtual ~Router() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Routes one packet from s to d: steps a RouteStepper to completion
  /// under the TTL in `options`. Out-of-range endpoints (e.g. a
  /// kInvalidNode pair from a failed connected-pair draw) yield an empty
  /// kDeadEnd result, never UB.
  virtual PathResult route(NodeId s, NodeId d,
                           const RouteOptions& options = {}) const;

  /// Routes pairs[i] for every i, returning one PathResult per pair in
  /// order. Semantically identical to calling `route` in a loop (tests
  /// enforce this per scheme); overrides only hoist per-packet setup.
  virtual std::vector<PathResult> route_batch(
      std::span<const std::pair<NodeId, NodeId>> pairs,
      const RouteOptions& options = {}) const;

  /// An in-flight packet from s toward d, advanced one hop per
  /// RouteStepper::step() call. The stepper owns its header; the router
  /// (and the structures it references) must outlive it. `ttl_limit`
  /// overrides the options-derived hop budget when nonzero — simulators
  /// re-planning a packet mid-flight pass its remaining budget so the
  /// re-plan never extends the packet's life.
  ///
  /// Stepping the returned stepper to exhaustion yields exactly
  /// `route(s, d, options)` (for equal TTL): same path, same phases, same
  /// floating-point length.
  std::unique_ptr<RouteStepper> make_stepper(NodeId s, NodeId d,
                                             const RouteOptions& options = {},
                                             std::size_t ttl_limit = 0) const;

  /// Re-arms a pooled `stepper` slot in place for a new (s, d) packet —
  /// the zero-allocation sibling of `make_stepper`. The slot's header is
  /// reused through `reset_header` when possible (falling back to a fresh
  /// `make_header` on the first use of a slot or for routers without an
  /// in-place reset) and the path/phase buffers keep their capacity.
  /// Stepping the re-armed slot is bit-identical to stepping a fresh
  /// `make_stepper(s, d, options, ttl_limit)` (tests enforce this).
  void restart_stepper(RouteStepper& stepper, NodeId s, NodeId d,
                       const RouteOptions& options = {},
                       std::size_t ttl_limit = 0) const;

 protected:
  explicit Router(const UnitDiskGraph& g) : g_(g) {}

  /// One successor decision at `u`. Returns the next hop (a neighbor of u
  /// or d itself when d is a neighbor) or kInvalidNode when stuck. Sets
  /// `phase` to classify the hop and may flag a local minimum.
  struct Decision {
    NodeId next = kInvalidNode;
    HopPhase phase = HopPhase::kGreedy;
    bool hit_local_minimum = false;
  };
  virtual Decision select_successor(NodeId u, NodeId d,
                                    PacketHeader& header) const = 0;

  /// Fresh per-packet header.
  virtual std::unique_ptr<PacketHeader> make_header(NodeId s, NodeId d) const = 0;

  /// Re-initializes `header` (previously produced by this router's
  /// `make_header`) for a new (s, d) packet, reusing its buffers. Returns
  /// false when the router has no in-place reset (the batch loop then
  /// falls back to a fresh header). The default supports no reset.
  virtual bool reset_header(PacketHeader& header, NodeId s, NodeId d) const;

  /// The hop loop behind `route`: steps a stepper over an externally owned
  /// and already initialized header to completion. `reserve_hint`
  /// pre-sizes the path/phase buffers (pass the previous packet's hop
  /// count in batch loops; 0 = no reserve).
  PathResult drive(NodeId s, NodeId d, const RouteOptions& options,
                   PacketHeader& header, std::size_t reserve_hint = 0) const;

  /// Shared `route_batch` override body: one header allocated up front,
  /// `reset_header` per packet, path capacity carried between packets.
  std::vector<PathResult> route_batch_reusing_headers(
      std::span<const std::pair<NodeId, NodeId>> pairs,
      const RouteOptions& options) const;

  const UnitDiskGraph& graph() const noexcept { return g_; }

 private:
  friend class RouteStepper;
  const UnitDiskGraph& g_;
};

/// The hop-by-hop walk of one packet, factored out of the old atomic
/// `Router::route` TTL loop. Holds the scheme header and the partial
/// PathResult; each `step()` makes exactly one successor decision and
/// appends the hop (or finishes the packet). Obtain one via
/// `Router::make_stepper`; `Router::route` itself is `while (step());`.
///
/// The stepper borrows the router — it must not outlive it (nor the graph
/// and safety/overlay structures the router references). It never observes
/// the topology except through the router, so a simulator that swaps the
/// substrate between hops re-plans by building a fresh stepper at the
/// packet's current node with its remaining TTL.
class RouteStepper {
 public:
  /// An empty slot: not in flight, no header, no router. Simulators keep
  /// vectors of these and arm them with `Router::restart_stepper`.
  RouteStepper() = default;

  RouteStepper(RouteStepper&&) = default;
  RouteStepper& operator=(RouteStepper&&) = default;

  /// One hop: a successor decision, path/phase/length accounting, and the
  /// delivered / dead-end / TTL-expired transitions. No-op once finished.
  /// Returns true while the packet is still in flight after the step.
  bool step();

  /// True until the packet delivers or fails.
  bool in_flight() const noexcept { return in_flight_; }

  /// The node currently holding the packet.
  NodeId current() const noexcept { return u_; }
  NodeId destination() const noexcept { return d_; }

  /// Hops the packet may still take before kTtlExpired.
  std::size_t ttl_remaining() const noexcept { return ttl_remaining_; }

  /// The walk so far. While in flight, `status` is not meaningful (the
  /// packet has not finished); path/phases/length are the partial walk.
  const PathResult& result() const noexcept { return result_; }

  /// Moves the (final) result out; the stepper is spent afterwards.
  PathResult take_result() noexcept { return std::move(result_); }

  /// Hops executed since this slot was (re)armed. Equals result().hops()
  /// while path recording is on; it is the only hop count available when
  /// recording is off.
  std::size_t hops_taken() const noexcept { return hops_taken_; }

  /// Toggles path/phase recording. With recording off, `step()` keeps the
  /// status, length, local-minima and `hops_taken()` accounting bit-exact
  /// but appends nothing to the result's path/phase vectors — flight
  /// simulators that only reduce per-flight aggregates skip the per-walk
  /// buffer growth (and its memory footprint) entirely. Arming a slot
  /// (`make_stepper` / `restart_stepper`) resets recording to on.
  void set_record_path(bool record) noexcept { record_path_ = record; }

  /// Frees the header and the walk buffers, returning the slot to its
  /// default-constructed footprint. Pooled simulators call this when a
  /// flight terminates, so finished flights hold no header or buffers.
  void release() noexcept {
    owned_header_.reset();
    header_ = nullptr;
    result_ = PathResult{};
    in_flight_ = false;
    u_ = kInvalidNode;
    hops_taken_ = 0;
    record_path_ = true;
  }

 private:
  friend class Router;

  /// `owned` may be null when `header` points at an externally owned
  /// header (the batch driver) or when the packet finished on
  /// construction (s == d, invalid endpoints, zero TTL).
  RouteStepper(const Router& router, NodeId s, NodeId d,
               std::unique_ptr<PacketHeader> owned, PacketHeader* header,
               std::size_t ttl, std::size_t reserve_hint);

  void finish(RouteStatus status) noexcept {
    result_.status = status;
    in_flight_ = false;
  }

  const Router* router_ = nullptr;
  std::unique_ptr<PacketHeader> owned_header_;
  PacketHeader* header_ = nullptr;
  NodeId u_ = kInvalidNode;
  NodeId d_ = kInvalidNode;
  std::size_t ttl_remaining_ = 0;
  std::size_t hops_taken_ = 0;
  bool in_flight_ = false;
  bool record_path_ = true;
  PathResult result_;
};

}  // namespace spr
