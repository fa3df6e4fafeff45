#include "sim/stream_sim.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>

#include "graph/graph_algos.h"
#include "sim/event_queue.h"
#include "sim/tick_scheduler.h"
#include "util/check.h"
#include "util/flat_map.h"
#include "util/task_pool.h"

namespace spr {

namespace {

StreamOutcome outcome_of(RouteStatus status) noexcept {
  switch (status) {
    case RouteStatus::kDelivered: return StreamOutcome::kDelivered;
    case RouteStatus::kTtlExpired: return StreamOutcome::kTtlExpired;
    case RouteStatus::kDeadEnd: return StreamOutcome::kDeadEnd;
  }
  return StreamOutcome::kDeadEnd;
}

WaypointConfig pin_field(WaypointConfig wc, const Rect& field) {
  wc.field = field;  // the waypoint process roams exactly the deployed field
  return wc;
}

constexpr std::size_t kNoOracle = static_cast<std::size_t>(-1);

/// Per-flight state in parallel arrays. Flight f = p * n_schemes + k is
/// scheme k's copy of packet p, so one event id addresses one copy and the
/// final reduction walks the arrays packet-major. Stepper slots are armed
/// via Router::restart_stepper at injection (a fresh header from the
/// scheme's make_header) and re-armed in place at re-plans; a slot is
/// released, header and buffers, the moment its walk ends, so only copies
/// in the air hold memory.
struct Records {
  // Per packet.
  std::vector<double> inject_time;
  std::vector<NodeId> src;
  std::vector<NodeId> dst;
  std::vector<std::size_t> oracle_hops;  ///< BFS optimum; 0 = unreachable
  std::vector<unsigned char> injected;
  // Per flight (packet-major).
  std::vector<StreamOutcome> outcome;
  std::vector<std::uint32_t> hops;          ///< across re-planned segments
  std::vector<std::uint32_t> local_minima;  ///< across re-planned segments
  std::vector<std::uint32_t> replans;
  std::vector<double> length;  ///< across re-planned segments, meters
  std::vector<double> finish_time;
  std::vector<RouteStepper> steppers;  ///< pooled slots, released when done
};

}  // namespace

std::vector<StreamWave> spread_failure_waves(
    const UnitDiskGraph& g,
    std::span<const std::pair<NodeId, NodeId>> endpoints, double fraction,
    int waves, double span, Rng& rng) {
  std::vector<StreamWave> out;
  // Clamped before the cast, which is undefined for an out-of-range value
  // (inf, 1e30); NaN kills nobody.
  const double clamped =
      std::isnan(fraction) ? 0.0 : std::clamp(fraction, 0.0, 1.0);
  std::size_t total = static_cast<std::size_t>(
      clamped * static_cast<double>(g.size()) + 0.5);
  if (total == 0 || waves <= 0) return out;
  std::vector<NodeId> candidates;
  candidates.reserve(g.size());
  for (NodeId u = 0; u < g.size(); ++u) {
    bool endpoint = false;
    for (const auto& [s, d] : endpoints) endpoint |= (u == s || u == d);
    if (!endpoint) candidates.push_back(u);
  }
  total = std::min(total, candidates.size());
  for (int w = 0; w < waves; ++w) {
    StreamWave wave;
    wave.time =
        span * static_cast<double>(w + 1) / static_cast<double>(waves + 1);
    std::size_t share =
        total / static_cast<std::size_t>(waves) +
        (static_cast<std::size_t>(w) < total % static_cast<std::size_t>(waves)
             ? 1
             : 0);
    for (std::size_t c = 0; c < share && !candidates.empty(); ++c) {
      std::size_t pick = rng.next_below(candidates.size());
      wave.casualties.push_back(candidates[pick]);
      candidates[pick] = candidates.back();
      candidates.pop_back();
    }
    out.push_back(std::move(wave));
  }
  return out;
}

StreamSim::StreamSim(Network initial, StreamConfig config)
    : net_(std::move(initial)),
      config_(std::move(config)),
      mobility_(net_.deployment().positions,
                pin_field(config_.waypoint, net_.deployment().field),
                Rng(config_.seed ^ 0x5712)) {
  // Timing feeds the event heap, whose order a NaN time breaks and which a
  // negative delay would run backwards.
  auto timing_ok = [](double v) { return std::isfinite(v) && v >= 0.0; };
  SPR_CHECK(timing_ok(config_.packet_interval), "packet_interval ",
            config_.packet_interval);
  SPR_CHECK(timing_ok(config_.hop_delay), "hop_delay ", config_.hop_delay);
  SPR_CHECK(timing_ok(config_.mobility_interval), "mobility_interval ",
            config_.mobility_interval);
  SPR_CHECK(timing_ok(config_.mobility_dt), "mobility_dt ",
            config_.mobility_dt);
  for (const StreamWave& wave : config_.waves) {
    SPR_CHECK(std::isfinite(wave.time), "wave time ", wave.time);
  }
  if (config_.schemes.empty()) config_.schemes = SweepConfig::paper_schemes();
  if (config_.packets < 0) config_.packets = 0;
  // No endpoints means no traffic: clamp the packet count so the mobility
  // re-pin loop (which keeps firing while injections remain) terminates.
  if (config_.pairs.empty()) config_.packets = 0;
  // Re-pins fire while traffic remains, and the last copy ends by the
  // stream's longest span, (packets - 1) * packet_interval + TTL *
  // hop_delay, so a tiny finite interval would re-pin past any budget.
  // Each term is divided by the interval first, so a huge interval next to
  // an equally huge span stays finite here and meets run()'s clock check.
  if (config_.mobility_interval > 0.0 && config_.packets > 0) {
    const double interval = config_.mobility_interval;
    const double ttl = static_cast<double>(
        RouteOptions{}.ttl_factor *
        std::max<std::size_t>(net_.graph().size(), 1));
    const double injections =
        config_.packets > 1 ? static_cast<double>(config_.packets - 1) *
                                  (config_.packet_interval / interval)
                            : 0.0;
    const double most = injections + ttl * (config_.hop_delay / interval) + 1;
    SPR_CHECK(most <= kMaxRepins, "mobility_interval ", interval,
              " allows up to ", most, " re-pins, over the cap of ",
              kMaxRepins);
  }
  // Force every structure the scheme set needs now, so the first failure
  // wave continues an already-built safety fixpoint incrementally instead
  // of triggering a from-scratch build mid-stream.
  unsigned needs = Network::kNeedsNone;
  for (const auto& spec : config_.schemes) {
    needs |= Network::needs_for(spec.scheme);
  }
  net_.force(needs);
  rebuild_routers();
}

StreamSim::~StreamSim() = default;

void StreamSim::rebuild_routers() {
  routers_.clear();
  routers_.reserve(config_.schemes.size());
  for (const auto& spec : config_.schemes) {
    routers_.push_back(net_.make_router(spec.scheme, spec.slgf2_options));
  }
}

void StreamSim::build_epoch_oracle(TaskPool* pool) {
  oracle_ready_ = true;
  // Eligibility is exactly the injection handler's per-pair guard:
  // in-range endpoints and a live source. It depends only on the pair and
  // the substrate, so it is constant within a topology epoch.
  std::vector<std::pair<NodeId, NodeId>> eligible;
  std::vector<std::size_t> which;
  eligible.reserve(config_.pairs.size());
  which.reserve(config_.pairs.size());
  for (std::size_t i = 0; i < config_.pairs.size(); ++i) {
    const auto& [s, d] = config_.pairs[i];
    if (s < net_.graph().size() && d < net_.graph().size() &&
        net_.graph().alive(s)) {
      which.push_back(i);
      eligible.push_back({s, d});
    } else {
      oracle_cache_[i] = kNoOracle;
    }
  }
  // One bidirectional BFS per pair for the whole epoch, instead of one
  // bfs_path per pair in the inject handler. Both are exact, so the cached
  // hop counts are byte-for-byte what the lazy fill produced.
  OracleBatch batch(net_.graph(), eligible, nullptr,
                    OracleBatch::Metrics::kHopsOnly, pool);
  for (std::size_t j = 0; j < which.size(); ++j) {
    oracle_cache_[which[j]] = batch.hop_optimal(j).hops();
  }
}

StreamStats StreamSim::run() {
  if (ran_) return stats_;
  ran_ = true;
  stats_.schemes.resize(config_.schemes.size());
  for (std::size_t k = 0; k < config_.schemes.size(); ++k) {
    stats_.schemes[k].label = config_.schemes[k].display_label();
  }

  struct Ev {
    enum class Kind : unsigned char { kInject, kTick, kHop, kWave, kRepin };
    Kind kind = Kind::kInject;
    std::size_t index = 0;  ///< packet / tick-bucket slot / flight / wave id
  };
  EventQueue<Ev> queue;
  SimClock clock;

  const bool per_hop = config_.engine == StreamEngine::kPerHopEvents;
  const std::size_t n_schemes = config_.schemes.size();
  const std::size_t n_packets = static_cast<std::size_t>(config_.packets);
  const std::size_t n_flights = n_packets * n_schemes;

  Records rec;
  rec.inject_time.assign(n_packets, 0.0);
  rec.src.assign(n_packets, kInvalidNode);
  rec.dst.assign(n_packets, kInvalidNode);
  rec.oracle_hops.assign(n_packets, 0);
  rec.injected.assign(n_packets, 0);
  rec.outcome.assign(n_flights, StreamOutcome::kInFlight);
  rec.hops.assign(n_flights, 0);
  rec.local_minima.assign(n_flights, 0);
  rec.replans.assign(n_flights, 0);
  rec.length.assign(n_flights, 0.0);
  rec.finish_time.assign(n_flights, 0.0);
  rec.steppers.resize(n_flights);
  for (std::size_t p = 0; p < n_packets; ++p) {
    const auto& pair = config_.pairs[p % config_.pairs.size()];
    rec.src[p] = pair.first;
    rec.dst[p] = pair.second;
  }

  // Stepping is read-only on the shared router/network structures: every
  // scheme's eager needs are forced in the constructor, and GF's lazy
  // recovery caches resolve atomically through Network's call_once
  // accessors, so each epoch's batch can fan out across a pool without any
  // up-front priming; arming and the merge stay serial and pop-ordered, so
  // the run is bit-identical across thread counts. The per-hop reference
  // mode runs without a pool.
  std::optional<TaskPool> pool;
  if (!per_hop && config_.threads > 1) pool.emplace(config_.threads);

  // The records only reduce aggregates, so the steppers run with path
  // recording off (`hops_taken` replaces `result().hops()`): no per-walk
  // buffer growth, and a finished flight's slot shrinks to its header.
  auto harvest_record = [&rec](std::size_t f) {
    const RouteStepper& slot = rec.steppers[f];
    const PathResult& segment = slot.result();
    rec.hops[f] += static_cast<std::uint32_t>(slot.hops_taken());
    rec.length[f] += segment.length;
    rec.local_minima[f] += static_cast<std::uint32_t>(segment.local_minima);
  };
  auto finalize_record = [&rec](std::size_t f, StreamOutcome outcome,
                                double when) {
    rec.outcome[f] = outcome;
    rec.finish_time[f] = when;
    rec.steppers[f].release();  // header + buffers, back to an empty slot
  };
  // Arms scheme k's copy of packet p at `from` with hop budget `budget`
  // (0 = the default RouteOptions TTL). A degenerate walk (already at the
  // destination, spent budget) finishes on the spot; returns whether the
  // copy is in the air.
  auto arm = [&](std::size_t p, std::size_t k, NodeId from,
                 std::size_t budget, double when) {
    const std::size_t f = p * n_schemes + k;
    RouteStepper& slot = rec.steppers[f];
    routers_[k]->restart_stepper(slot, from, rec.dst[p], {}, budget);
    slot.set_record_path(false);
    if (slot.in_flight()) return true;
    RouteStatus status = slot.result().status;
    harvest_record(f);
    finalize_record(f, outcome_of(status), when);
    return false;
  };

  // The tick ring: flights due at the same exact instant share one bucket
  // and one kTick heap event, pushed when the bucket is created. The epoch
  // batch creates it after the pop where the per-hop mode pushes that
  // time's first hop event, but before the barrier's handler pushes the
  // next control event, so tick-vs-control tie order inherits the per-hop
  // (time, seq) semantics.
  TickBuckets ticks(256);
  auto schedule_flight = [&ticks, &queue](std::size_t f, double when) {
    TickBuckets::Scheduled scheduled =
        ticks.schedule(when, static_cast<std::uint32_t>(f));
    if (scheduled.created) {
      queue.push(when, Ev{Ev::Kind::kTick, scheduled.slot});
    }
  };

  // The re-plan on a new substrate. The header state is gone with the old
  // substrate, so each copy in the air re-plans from wherever it is with
  // whatever TTL it has left; a copy whose carrier died is dropped. Its
  // pending tick-batch entry or hop event keeps firing and steps the new
  // walk, or is filtered as stale once the copy finalizes — no heap or ring
  // surgery.
  std::size_t live = 0;  // copies parked on the ring or awaiting a hop event
  auto replan_records = [&](double when, std::size_t& in_flight,
                            std::size_t& dropped) {
    for (std::size_t p = 0; p < n_packets; ++p) {
      if (!rec.injected[p]) continue;
      for (std::size_t k = 0; k < n_schemes; ++k) {
        std::size_t f = p * n_schemes + k;
        if (rec.outcome[f] != StreamOutcome::kInFlight) continue;
        RouteStepper& slot = rec.steppers[f];
        NodeId at = slot.current();
        std::size_t budget = slot.ttl_remaining();
        harvest_record(f);
        if (!net_.graph().alive(at)) {
          ++dropped;
          finalize_record(f, StreamOutcome::kNodeFailed, when);
          --live;
          continue;
        }
        ++in_flight;
        ++rec.replans[f];
        if (!arm(p, k, at, budget, when)) --live;
      }
    }
  };

  // Schedule the whole input timeline up front: injections, then the
  // failure waves (in time order), then the first mobility re-pin.
  // Same-instant ties resolve deterministically by push order: an
  // injection due exactly at a wave's timestamp fires before it (pushed
  // here, earlier), while a hop due at that instant fires after it (hop
  // events and tick events are pushed mid-run, so they carry later
  // sequence numbers) — the packet steps its re-planned walk on the
  // degraded substrate.
  if (!config_.pairs.empty()) {
    oracle_cache_.assign(config_.pairs.size(), kNoOracle);
    oracle_ready_ = false;
    for (std::size_t p = 0; p < n_packets; ++p) {
      queue.push(static_cast<double>(p) * config_.packet_interval,
                 Ev{Ev::Kind::kInject, p});
    }
  }
  std::vector<std::size_t> wave_order(config_.waves.size());
  std::iota(wave_order.begin(), wave_order.end(), std::size_t{0});
  std::stable_sort(wave_order.begin(), wave_order.end(),
                   [this](std::size_t a, std::size_t b) {
                     return config_.waves[a].time < config_.waves[b].time;
                   });
  for (std::size_t wi : wave_order) {
    queue.push(config_.waves[wi].time, Ev{Ev::Kind::kWave, wi});
  }
  if (config_.mobility_interval > 0.0 && n_packets > 0) {
    queue.push(config_.mobility_interval, Ev{Ev::Kind::kRepin, 0});
  }

  // Epoch barriers: the only events that can change what a flight observes
  // are the substrate mutations (waves and re-pins) — injections spawn new
  // flights but never touch active ones. Between one barrier and the next,
  // every flight's walk is a pure function of its own state, so the
  // flight-record mode steps each flight through ALL its hop instants
  // strictly before the barrier at once instead of one hop per event. The
  // instant sequence accumulates iteratively (t = t + hop_delay), exactly
  // as the per-hop mode pushes hop events, so finish times stay
  // bit-identical; a hop instant that lands exactly on the barrier is not
  // taken — the survivor parks there and the barrier event (earlier seq,
  // pushed at setup / the previous re-pin) fires first, as in the per-hop
  // heap order.
  constexpr double kNoBarrier = std::numeric_limits<double>::infinity();
  std::vector<double> wave_times;
  wave_times.reserve(wave_order.size());
  for (std::size_t wi : wave_order) {
    wave_times.push_back(config_.waves[wi].time);
  }
  std::size_t wave_cursor = 0;
  double next_repin = config_.mobility_interval > 0.0 && n_packets > 0
                          ? config_.mobility_interval
                          : kNoBarrier;
  auto next_barrier = [&]() {
    double b = next_repin;
    if (wave_cursor < wave_times.size()) {
      b = std::min(b, wave_times[wave_cursor]);
    }
    return b;
  };

  // Walk memo: scheme copies with identical endpoints injected into the
  // same epoch take the same deterministic walk (a re-armed slot walks
  // bit-identically to Router::route, property-tested per scheme), so the
  // first copy steps it and later copies replay the recorded aggregates —
  // traffic cycling over few pairs pays one routed walk per (scheme, pair)
  // per epoch instead of one per flight. Replay re-accumulates the hop
  // instants iteratively, so finish times and latencies stay bit-identical;
  // a walk that would cross the epoch barrier is not replayed (the copy
  // steps for real and parks, keeping its own header state). Cleared at
  // every substrate change alongside rebuild_routers().
  struct WalkMemo {
    StreamOutcome outcome = StreamOutcome::kDeadEnd;
    std::uint32_t hops = 0;
    std::uint32_t local_minima = 0;
    /// step() calls of the walk: hops, plus one for the terminal
    /// no-move call of a dead end — the count of hop instants occupied.
    /// 0 while no walk of this key has ended.
    std::uint32_t step_calls = 0;
    double length = 0.0;
    std::uint64_t claimed = 0;  ///< last batch that armed this key's walk
  };
  FlatMap64<WalkMemo> walk_memo;
  const std::size_t n_nodes = net_.graph().size();
  // The injective (scheme, src, dst) -> u64 encoding needs
  // n_schemes * n_nodes^2 to fit; beyond that the memo just switches off.
  const bool memo_ok =
      n_nodes > 0 && n_schemes <= (~std::uint64_t{0} - 1) / n_nodes / n_nodes;
  auto memo_key = [&rec, n_nodes, n_schemes](std::size_t f) {
    const std::size_t p = f / n_schemes;
    return (static_cast<std::uint64_t>(f % n_schemes) * n_nodes + rec.src[p]) *
               n_nodes +
           rec.dst[p];
  };

  // A wave or a re-pin adopts its successor substrate: the optional
  // from-scratch cross-check of the incremental relabeling, a fresh epoch
  // (oracle, routers, walk memo) and the re-plan of every copy in the air.
  auto adopt = [&](Network next, auto& record, double when) {
    if (config_.verify_relabeling && next.has_safety()) {
      SafetyInfo fresh = compute_safety(next.graph(), next.interest_area());
      record.verified = true;
      record.matches_full_recompute = fresh == next.safety();
    }
    net_ = std::move(next);
    std::fill(oracle_cache_.begin(), oracle_cache_.end(), kNoOracle);
    oracle_ready_ = false;
    rebuild_routers();
    walk_memo.clear();  // memoized walks referenced the old substrate
    replan_records(when, record.packets_in_flight, record.packets_dropped);
  };

  std::size_t injected_count = 0;
  // The latest batched terminal instant. The per-hop mode's clock ends on
  // its last heap event — the slowest flight's terminal hop — but batched
  // hops never become heap events, so that instant is tracked here and
  // folded into virtual_time after the drain.
  double final_instant = 0.0;

  // The epoch batch. In flight-record mode kInject and kTick only append
  // their flights, in pop order; `flush` steps the whole list at once when
  // a barrier pops (before its handler touches anything), when the heap
  // drains, and whenever the list reaches kBatchCap entries, which bounds
  // the fresh slots armed at once. Stepping late and together changes only
  // host time: flights are independent until the barrier and every park
  // lands at or past it, so the merge's kTick pushes, made in pop order,
  // all precede what the barrier's handler pushes.
  struct Pending {
    std::uint32_t flight = 0;
    bool tick = false;     ///< a tick survivor; else a fresh injection
    bool stepped = false;  ///< stepped by this flush, so the merge settles it
    double at = 0.0;       ///< pop instant; once stepped, park/end instant
  };
  constexpr std::size_t kBatchCap = 4096;
  std::vector<Pending> pending;
  std::vector<std::size_t> stepping;  // indices into pending
  std::vector<std::size_t> repeats;   // injections whose key is armed
  std::uint64_t batches = 0;

  auto flush = [&]() {
    if (pending.empty()) return;
    ++batches;
    const double barrier = next_barrier();
    const double hop_delay = config_.hop_delay;
    // The one advance routine: a tick takes its first step at its pop
    // instant, an injection one hop_delay later and only before the
    // barrier. A walk that ends is harvested and its slot released on the
    // spot; a survivor keeps its park instant, the first hop instant at or
    // past the barrier.
    auto advance = [&](Pending& e) {
      RouteStepper& slot = rec.steppers[e.flight];
      double t = e.tick ? e.at : e.at + hop_delay;
      bool parked = !e.tick && !(t < barrier);
      while (!parked && slot.step()) {
        t += hop_delay;
        parked = !(t < barrier);
      }
      e.stepped = true;
      e.at = t;
      if (parked) return;
      const RouteStatus status = slot.result().status;
      harvest_record(e.flight);
      finalize_record(e.flight, outcome_of(status), t);
    };
    // Disjoint per-flight state over a read-only substrate. The grain
    // scales with the batch (a few blocks per worker), and work stealing
    // absorbs the uneven walk lengths.
    auto step_all = [&]() {
      constexpr std::size_t kMinGrain = 32;
      const std::size_t grain =
          pool ? std::max(kMinGrain,
                          stepping.size() / (pool->thread_count() * 4))
               : stepping.size();
      parallel_for_blocked(pool ? &*pool : nullptr, stepping.size(), grain,
                           [&](std::size_t begin, std::size_t end) {
                             for (std::size_t i = begin; i < end; ++i) {
                               advance(pending[stepping[i]]);
                             }
                           });
      stepping.clear();
    };
    // Arms a fresh copy at its source; a degenerate walk ends at its pop.
    auto arm_fresh = [&](std::size_t i) {
      const std::size_t f = pending[i].flight;
      const std::size_t p = f / n_schemes;
      if (arm(p, f % n_schemes, rec.src[p], 0, pending[i].at)) {
        stepping.push_back(i);
      }
    };

    // 1. Arm, in pop order, the first injection of each key the memo has
    //    no walk for; the key's later injections wait for that walk.
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (pending[i].tick) {
        stepping.push_back(i);
        continue;
      }
      if (memo_ok) {
        WalkMemo& m =
            walk_memo.find_or_insert(memo_key(pending[i].flight), WalkMemo{});
        if (m.step_calls > 0 || m.claimed == batches) {
          repeats.push_back(i);
          continue;
        }
        m.claimed = batches;
      }
      arm_fresh(i);
    }
    // 2. Step those and every tick survivor, to their end or their park.
    step_all();
    // 3. Memoize the first walks that ended (only they have stepped among
    //    the injections), replay the repeats whose walk fits before the
    //    barrier, and arm the rest: they cross it, or their key's first
    //    walk parked, so they step for real and park.
    if (memo_ok) {
      for (const Pending& e : pending) {
        if (e.tick || !e.stepped ||
            rec.outcome[e.flight] == StreamOutcome::kInFlight) {
          continue;
        }
        WalkMemo& m = walk_memo.find_or_insert(memo_key(e.flight), WalkMemo{});
        m.outcome = rec.outcome[e.flight];
        m.hops = rec.hops[e.flight];
        m.local_minima = rec.local_minima[e.flight];
        // A dead end's terminal step() call moves nothing but occupies one
        // hop instant; delivery / TTL expiry happen on a counted hop.
        m.step_calls =
            m.hops + (m.outcome == StreamOutcome::kDeadEnd ? 1u : 0u);
        m.length = rec.length[e.flight];
      }
    }
    for (std::size_t i : repeats) {
      const std::size_t f = pending[i].flight;
      const WalkMemo& m = walk_memo.find_or_insert(memo_key(f), WalkMemo{});
      if (m.step_calls > 0) {
        double t = pending[i].at + hop_delay;
        bool fits = t < barrier;
        for (std::uint32_t c = 1; fits && c < m.step_calls; ++c) {
          t += hop_delay;
          fits = t < barrier;
        }
        if (fits) {  // the whole walk lands inside this epoch
          rec.hops[f] += m.hops;
          rec.length[f] += m.length;
          rec.local_minima[f] += m.local_minima;
          finalize_record(f, m.outcome, t);
          final_instant = std::max(final_instant, t);
          continue;
        }
      }
      arm_fresh(i);
    }
    repeats.clear();
    // 4. Step those.
    step_all();
    // 5. Merge serially in pop order: survivors join the tick ring at
    //    their park instants, ended walks settle the clock.
    for (const Pending& e : pending) {
      if (!e.stepped) continue;  // ended at its pop, or replayed
      if (rec.outcome[e.flight] == StreamOutcome::kInFlight) {
        schedule_flight(e.flight, e.at);
        if (!e.tick) ++live;
      } else {
        final_instant = std::max(final_instant, e.at);
        if (e.tick) --live;
      }
    }
    pending.clear();
  };

  for (;;) {
    if (queue.empty()) {
      if (pending.empty()) break;
      flush();  // the drain; a batch that parks a flight refills the heap
      continue;
    }
    auto timed = queue.pop();
    clock.advance_to(timed.time);
    const double now = clock.now();
    ++stats_.events;

    switch (timed.event.kind) {
      case Ev::Kind::kInject: {
        const std::size_t p = timed.event.index;
        rec.injected[p] = 1;
        rec.inject_time[p] = now;
        ++injected_count;
        // The hop-optimal baseline is pinned at injection time: stretch
        // measures what the scheme paid relative to the network the packet
        // was handed to, before any mid-flight wave degraded it. Packets
        // cycle over few pairs, so the whole epoch's oracles are batched
        // at the first injection after each topology change.
        if (rec.src[p] < net_.graph().size() &&
            rec.dst[p] < net_.graph().size() &&
            net_.graph().alive(rec.src[p])) {
          if (!oracle_ready_) build_epoch_oracle(pool ? &*pool : nullptr);
          std::size_t cached = oracle_cache_[p % config_.pairs.size()];
          rec.oracle_hops[p] = cached == kNoOracle ? 0 : cached;
        }
        for (std::size_t k = 0; k < n_schemes; ++k) {
          std::size_t f = p * n_schemes + k;
          if (rec.src[p] >= net_.graph().size() ||
              !net_.graph().alive(rec.src[p])) {
            finalize_record(f, StreamOutcome::kNodeFailed, now);
            continue;
          }
          if (per_hop) {  // the reference: arm, then one heap event per hop
            if (arm(p, k, rec.src[p], 0, now)) {
              queue.push(now + config_.hop_delay, Ev{Ev::Kind::kHop, f});
              ++live;
            }
            continue;
          }
          pending.push_back({static_cast<std::uint32_t>(f), false, false, now});
        }
        break;
      }
      case Ev::Kind::kHop: {
        // The reference mode: one flight, one hop, one heap event. Stale
        // events of copies a wave or re-pin finished just evaporate.
        const std::size_t f = timed.event.index;
        if (rec.outcome[f] != StreamOutcome::kInFlight) break;
        RouteStepper& slot = rec.steppers[f];
        if (slot.step()) {
          queue.push(now + config_.hop_delay, Ev{Ev::Kind::kHop, f});
        } else {
          RouteStatus status = slot.result().status;
          harvest_record(f);
          finalize_record(f, outcome_of(status), now);
          --live;
        }
        break;
      }
      case Ev::Kind::kTick: {
        // Stale ids (finalized by a wave/re-pin since they were scheduled)
        // evaporate, like the per-hop mode's stale hop events.
        for (std::uint32_t f :
             ticks.take(static_cast<std::uint32_t>(timed.event.index))) {
          if (rec.outcome[f] == StreamOutcome::kInFlight) {
            pending.push_back({f, true, false, now});
          }
        }
        break;
      }
      case Ev::Kind::kWave: {
        flush();
        ++wave_cursor;  // this barrier has fired, whether or not it bites
        const StreamWave& wave = config_.waves[timed.event.index];
        std::vector<NodeId> casualties;
        casualties.reserve(wave.casualties.size());
        for (NodeId u : wave.casualties) {
          if (u < net_.graph().size() && net_.graph().alive(u)) {
            casualties.push_back(u);
          }
        }
        WaveRecord record;
        record.time = now;
        record.casualties = casualties.size();
        if (casualties.empty()) {
          // Nothing actually died (already dead / out of range / an empty
          // schedule slot): record the wave but leave the substrate and
          // every in-flight header untouched — a no-op wave must not
          // force phantom re-plans.
          stats_.waves.push_back(std::move(record));
          break;
        }
        routers_.clear();  // routers reference the outgoing substrate
        Network degraded = net_.with_failures(casualties, &record.relabel);
        adopt(std::move(degraded), record, now);
        stats_.waves.push_back(std::move(record));
        break;
      }
      case Ev::Kind::kRepin: {
        flush();
        // Positions changed: the snapshot *continues incrementally*
        // (Network::with_moves) — the spatial grid relocates, the
        // adjacency is patched from the edge delta, and the safety
        // labeling continues bidirectionally from the previous fixpoint
        // (update_safety_after_moves: removals demote, additions promote).
        // The paper's periodic reconstruction regime collapsed into a
        // local update wave. Nodes killed by earlier failure waves stay
        // dead (aliveness carries over) and the interest-area band
        // carries over.
        mobility_.advance(config_.mobility_dt);
        routers_.clear();
        RepinRecord record;
        record.time = now;
        EdgeDiff diff;
        Network moved =
            net_.with_moves(mobility_.positions(), &record.relabel, &diff);
        record.moved = diff.moved_nodes;
        record.edges_added = diff.added.size();
        record.edges_removed = diff.removed.size();
        adopt(std::move(moved), record, now);
        ++stats_.repins;
        stats_.repin_records.push_back(std::move(record));
        if (injected_count < n_packets || live > 0) {
          next_repin = now + config_.mobility_interval;
          // A re-pin that cannot move the clock would re-fire at this same
          // instant for as long as traffic remains.
          SPR_CHECK(next_repin > now, "mobility_interval ",
                    config_.mobility_interval, " does not advance t=", now);
          queue.push(next_repin, Ev{Ev::Kind::kRepin, 0});
        } else {
          next_repin = kNoBarrier;
        }
        break;
      }
    }
    if (pending.size() >= kBatchCap) flush();
  }

  stats_.virtual_time = std::max(clock.now(), final_instant);

  // Per-scheme totals in packet-major order — a deterministic reduction
  // independent of how the event timeline interleaved.
  for (std::size_t p = 0; p < n_packets; ++p) {
    if (!rec.injected[p]) continue;
    for (std::size_t k = 0; k < n_schemes; ++k) {
      std::size_t f = p * n_schemes + k;
      StreamSchemeStats& s = stats_.schemes[k];
      ++s.injected;
      s.replans.add(static_cast<double>(rec.replans[f]));
      s.local_minima.add(static_cast<double>(rec.local_minima[f]));
      switch (rec.outcome[f]) {
        case StreamOutcome::kDelivered:
          ++s.delivered;
          s.hops.add(static_cast<double>(rec.hops[f]));
          s.length.add(rec.length[f]);
          if (rec.oracle_hops[p] > 0) {
            s.stretch_hops.add(static_cast<double>(rec.hops[f]) /
                               static_cast<double>(rec.oracle_hops[p]));
          }
          s.latency.add(rec.finish_time[f] - rec.inject_time[p]);
          break;
        case StreamOutcome::kTtlExpired:
          ++s.ttl_expired;
          break;
        case StreamOutcome::kNodeFailed:
          ++s.node_failed;
          break;
        case StreamOutcome::kDeadEnd:
        case StreamOutcome::kInFlight:  // unreachable: the queue drained
          ++s.dead_end;
          break;
      }
    }
  }
  return stats_;
}

}  // namespace spr
