#include "routing/router.h"

#include <algorithm>

namespace spr {

bool RouteStepper::step() {
  if (!in_flight_) return false;
  Router::Decision decision = router_->select_successor(u_, d_, *header_);
  if (decision.hit_local_minimum) ++result_.local_minima;
  if (decision.next == kInvalidNode) {
    finish(RouteStatus::kDeadEnd);
    return false;
  }
  const UnitDiskGraph& g = router_->g_;
  result_.length += distance(g.position(u_), g.position(decision.next));
  if (record_path_) {
    result_.path.push_back(decision.next);
    result_.hop_phases.push_back(decision.phase);
  }
  ++hops_taken_;
  u_ = decision.next;
  if (u_ == d_) {
    finish(RouteStatus::kDelivered);
    return false;
  }
  if (--ttl_remaining_ == 0) {
    finish(RouteStatus::kTtlExpired);
    return false;
  }
  return true;
}

void Router::restart_stepper(RouteStepper& stepper, NodeId s, NodeId d,
                             const RouteOptions& options,
                             std::size_t ttl_limit) const {
  stepper.router_ = this;
  stepper.u_ = s;
  stepper.d_ = d;
  // TTL = ttl_factor * n hops; generous so that only genuine livelock or
  // disconnection trips it.
  stepper.ttl_remaining_ =
      ttl_limit != 0 ? ttl_limit
                     : options.ttl_factor * std::max<std::size_t>(g_.size(), 1);
  stepper.hops_taken_ = 0;
  stepper.in_flight_ = true;
  stepper.record_path_ = true;
  // The path/phase buffers are cleared but keep their capacity.
  PathResult& result = stepper.result_;
  result.status = RouteStatus::kDeadEnd;
  result.path.clear();
  result.hop_phases.clear();
  result.length = 0.0;
  result.local_minima = 0;
  if (s >= g_.size() || d >= g_.size()) {
    // Invalid endpoints: an empty dead end, never an out-of-bounds walk.
    stepper.finish(RouteStatus::kDeadEnd);
    stepper.u_ = kInvalidNode;
    return;
  }
  result.path.push_back(s);
  if (s == d) {
    stepper.finish(RouteStatus::kDelivered);
    return;
  }
  if (stepper.ttl_remaining_ == 0) {
    stepper.finish(RouteStatus::kTtlExpired);
    return;
  }
  if (stepper.header_ == nullptr) stepper.header_ = make_header();
  reset_header(*stepper.header_, s, d);
}

PathResult Router::route(NodeId s, NodeId d, const RouteOptions& options) const {
  RouteStepper stepper;
  restart_stepper(stepper, s, d, options);
  while (stepper.step()) {
  }
  return stepper.take_result();
}

std::vector<PathResult> Router::route_batch(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    const RouteOptions& options) const {
  std::vector<PathResult> out;
  out.reserve(pairs.size());
  RouteStepper stepper;
  for (auto [s, d] : pairs) {
    restart_stepper(stepper, s, d, options);
    while (stepper.step()) {
    }
    out.push_back(stepper.result());  // a copy: the slot keeps its buffers
  }
  return out;
}

std::unique_ptr<PacketHeader> Router::make_header() const {
  return std::make_unique<PacketHeader>();
}

void Router::reset_header(PacketHeader&, NodeId, NodeId) const {}

}  // namespace spr
