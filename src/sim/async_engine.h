#pragma once

/// \file async_engine.h
/// Event-driven asynchronous message-passing engine. The paper presents its
/// protocols in a synchronous round model "to simplify the discussion" and
/// notes they extend to asynchronous systems; this engine provides that
/// setting: every broadcast is delivered per-link after an independent
/// random delay, and nodes are activated per message, in delivery order.
///
/// The event queue, virtual clock and FIFO-link delay model live in the
/// shared discrete-event core (sim/event_queue.h); this engine is a thin
/// protocol driver over them. Used to validate that the safety-information
/// construction converges to the same fixpoint without round
/// synchronization (`compute_safety_distributed_async`, run by the tests).

#include <cstddef>
#include <functional>
#include <optional>
#include <string>

#include "deploy/rng.h"
#include "graph/unit_disk.h"
#include "sim/event_queue.h"

namespace spr {

/// Totals reported by an asynchronous run. Broadcast/reception counters
/// live in the shared SimStats base.
struct AsyncEngineStats : SimStats {
  std::size_t activations = 0;  ///< process invocations
  double virtual_time = 0.0;    ///< timestamp of the last event

  std::string to_string() const;
};

/// Asynchronous engine carrying payloads of type `Payload`.
template <typename Payload>
class AsyncEngine {
 public:
  struct Incoming {
    NodeId sender;
    Payload payload;
  };

  /// Node behaviour: invoked once at time 0 with no message (inbox empty)
  /// and once per delivered message afterwards. Returning a payload
  /// broadcasts it to all neighbors, each with an independent delay drawn
  /// uniformly from [min_delay, max_delay); links are FIFO (see
  /// FifoLinkDelays).
  using Process = std::function<std::optional<Payload>(
      NodeId self, double now, std::optional<Incoming> message)>;

  AsyncEngine(const UnitDiskGraph& graph, Rng& rng, double min_delay = 0.5,
              double max_delay = 1.5)
      : graph_(graph), rng_(rng), min_delay_(min_delay), max_delay_(max_delay) {}

  /// Runs until the event queue drains or `max_events` deliveries.
  AsyncEngineStats run(const Process& process, std::size_t max_events) {
    struct Delivery {
      NodeId target;
      Incoming message;
    };
    AsyncEngineStats stats;
    EventQueue<Delivery> queue;
    SimClock clock;
    FifoLinkDelays links(graph_.size(), min_delay_, max_delay_);

    auto broadcast = [&](NodeId from, double now, const Payload& payload) {
      ++stats.broadcasts;
      for (NodeId v : graph_.neighbors(from)) {
        queue.push(links.schedule(from, v, now, rng_),
                   Delivery{v, Incoming{from, payload}});
      }
    };

    // Initial activation of every alive node at time 0.
    for (NodeId u = 0; u < graph_.size(); ++u) {
      if (!graph_.alive(u)) continue;
      ++stats.activations;
      if (auto out = process(u, 0.0, std::nullopt)) broadcast(u, 0.0, *out);
    }

    std::size_t events = 0;
    while (!queue.empty() && events++ < max_events) {
      auto timed = queue.pop();
      ++stats.receptions;
      clock.advance_to(timed.time);
      stats.virtual_time = clock.now();
      if (!graph_.alive(timed.event.target)) continue;
      ++stats.activations;
      if (auto out = process(timed.event.target, timed.time,
                             timed.event.message)) {
        broadcast(timed.event.target, timed.time, *out);
      }
    }
    return stats;
  }

 private:
  const UnitDiskGraph& graph_;
  Rng& rng_;
  double min_delay_;
  double max_delay_;
};

}  // namespace spr
