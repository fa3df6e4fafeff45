#pragma once

/// \file router.h
/// The router interface and the one hop-by-hop walk every scheme shares.
/// Each scheme in the paper is a *successor selection* at the current node
/// from local knowledge only (N(u), the positions of u and d, and whatever
/// state the packet header carries); the walk around it — TTL, path
/// recording, phase accounting — lives in RouteStepper, a public state
/// machine that advances one hop per `step()` call.
///
/// `Router::restart_stepper` is the only code that arms a walk. `route`
/// arms a local slot and steps it to completion; `route_batch` re-arms one
/// slot per pair, so a batch allocates its header (and the O(n) visited
/// buffers) once, which is the hot path of every sweep cell; discrete-event
/// simulators (sim/stream_sim.h) keep pooled slots for many in-flight
/// packets and interleave their hops on one timeline, observing topology
/// changes between hops. A scheme supplies only `select_successor` and, if
/// its packets carry state, `make_header` and `reset_header`.

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
/// Routers downcast to their own header type; a scheme that carries no
/// state uses this empty base as is.
class PacketHeader {
 public:
  virtual ~PacketHeader() = default;
};

/// A geographic routing scheme.
class Router {
 public:
  virtual ~Router() = default;

  virtual std::string_view name() const noexcept = 0;

  /// Routes one packet from s to d: arms a local slot and steps it to
  /// completion under the TTL in `options`. Out-of-range endpoints (e.g. a
  /// kInvalidNode pair from a failed connected-pair draw) yield an empty
  /// kDeadEnd result, never UB.
  PathResult route(NodeId s, NodeId d, const RouteOptions& options = {}) const;

  /// Routes pairs[i] for every i, returning one PathResult per pair in
  /// order: `route` in a loop, except that one slot is re-armed per pair,
  /// so the header and the walk buffers are allocated once per batch.
  std::vector<PathResult> route_batch(
      std::span<const std::pair<NodeId, NodeId>> pairs,
      const RouteOptions& options = {}) const;

  /// Arms `stepper` for a new (s, d) packet: sets the slot's router,
  /// endpoints, hop budget and header, and clears its walk. A slot without
  /// a header (new, or released) gets one from `make_header`; otherwise
  /// its header is reset in place, so a slot must be re-armed only by
  /// routers of one scheme unless released in between. The path/phase
  /// buffers keep their capacity. `ttl_limit` overrides the options-derived
  /// hop budget when nonzero — simulators re-planning a packet mid-flight
  /// pass its remaining budget so the re-plan never extends the packet's
  /// life. s == d delivers at once with the one-node path; out-of-range
  /// endpoints finish as an empty kDeadEnd. The router (and the structures
  /// it references) must outlive the walk.
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

  /// A header for one slot, uninitialized: `reset_header` sets it up for
  /// each packet. The default is the stateless `PacketHeader`.
  virtual std::unique_ptr<PacketHeader> make_header() const;

  /// Initializes `header` (made by this scheme's `make_header`) for an
  /// (s, d) packet, reusing its buffers — the scheme's only header
  /// initializer. The default, for stateless schemes, does nothing.
  virtual void reset_header(PacketHeader& header, NodeId s, NodeId d) const;

  const UnitDiskGraph& graph() const noexcept { return g_; }

 private:
  friend class RouteStepper;
  const UnitDiskGraph& g_;
};

/// The hop-by-hop walk of one packet. Holds the scheme header and the
/// partial PathResult; each `step()` makes exactly one successor decision
/// and appends the hop (or finishes the packet). Armed only by
/// `Router::restart_stepper`; `Router::route` is that plus
/// `while (step());`.
///
/// The stepper borrows the router — it must not outlive it (nor the graph
/// and safety/overlay structures the router references). It never observes
/// the topology except through the router, so a simulator that swaps the
/// substrate between hops re-plans by re-arming the slot at the packet's
/// current node with its remaining TTL.
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
  /// resets recording to on.
  void set_record_path(bool record) noexcept { record_path_ = record; }

  /// Frees the header and the walk buffers, returning the slot to its
  /// default-constructed footprint. Pooled simulators call this when a
  /// flight terminates, so finished flights hold no header or buffers.
  void release() noexcept {
    header_.reset();
    result_ = PathResult{};
    in_flight_ = false;
    u_ = kInvalidNode;
    hops_taken_ = 0;
    record_path_ = true;
  }

 private:
  friend class Router;

  void finish(RouteStatus status) noexcept {
    result_.status = status;
    in_flight_ = false;
  }

  const Router* router_ = nullptr;
  std::unique_ptr<PacketHeader> header_;
  NodeId u_ = kInvalidNode;
  NodeId d_ = kInvalidNode;
  std::size_t ttl_remaining_ = 0;
  std::size_t hops_taken_ = 0;
  bool in_flight_ = false;
  bool record_path_ = true;
  PathResult result_;
};

}  // namespace spr
