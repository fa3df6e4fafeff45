/// \file stream.cpp
/// The `stream` workload: failures and motion interleaved with routing on
/// one constant-degree 10^4-node FA field. LGF, SLGF and SLGF2 race over
/// 256 long-lived pairs with continuous injection; four failure waves kill
/// 2% of the nodes and waypoint re-pins run periodically; the
/// flight-record engine steps each tick on 4 threads. A job is one
/// StreamSim::run; `flights_per_s` is its finished flights over its wall
/// time. GF is left out: it would rebuild BOUNDHOLE after every wave, and
/// BOUNDHOLE is measured in the sweep.
///
/// The traced job times the barrier layers by replaying the recorded wave
/// and re-pin sequence through the layer calls after the run (same
/// casualties, same WaypointModel seed); `sim.self_ms` is the run time
/// minus the replayed barrier time.

#include <algorithm>
#include <optional>
#include <set>
#include <tuple>

#include "bench.h"
#include "graph/graph_algos.h"
#include "layered.h"
#include "routing/lgf.h"
#include "routing/slgf.h"
#include "routing/slgf2.h"
#include "sim/stream_sim.h"

namespace perfbench {

namespace {

struct StreamSizes {
  int nodes;
  int pairs;
  int packets;
  double packet_interval;
  int repins;  ///< re-pins during the injection span
};

StreamSizes stream_sizes(bool tiny) {
  if (tiny) return {2000, 16, 400, 0.05, 2};
  return {10000, 256, 6000, 0.02, 6};
}

std::vector<spr::SchemeSpec> stream_schemes() {
  return {{spr::Scheme::kLgf, {}, ""},
          {spr::Scheme::kSlgf, {}, ""},
          {spr::Scheme::kSlgf2, {}, ""}};
}

/// Everything a run needs, built before the measured phase.
struct StreamSetup {
  spr::Deployment deployment;
  spr::StreamConfig config;
  std::optional<spr::StreamSim> sim;
};

/// Set-up of draw `draw`: every job draws fresh pairs, waves and motion on
/// the fixed field, so a run's median averages over many draws.
void build_setup(const Options& options, int draw, StreamSetup& s) {
  const std::uint64_t tag = 16 * static_cast<std::uint64_t>(draw);
  const StreamSizes sizes = stream_sizes(options.tiny);
  {
    // One fixed field; the seed draws the traffic and the dynamics.
    Span span("deploy.deploy");
    spr::Rng rng(kFieldSeed);
    s.deployment = spr::deploy(scaled_fa_config(sizes.nodes), rng);
  }
  std::optional<spr::Network> net;
  {
    Span span("graph.build");
    net.emplace(s.deployment);
  }
  {
    Span span("graph.zones");
    net->graph().zones();
  }
  {
    Span span("safety.label");
    net->force(spr::Network::kNeedsSafety);
  }
  {
    Span span("sim.schedule");
    spr::Rng rng(mix_seed(options.seed, tag + 12));
    spr::StreamConfig& c = s.config;
    c = spr::StreamConfig{};
    c.schemes = stream_schemes();
    for (int k = 0; k < 64 * sizes.pairs && c.pairs.size() < static_cast<std::size_t>(sizes.pairs); ++k) {
      auto pair = net->random_connected_interior_pair(rng);
      if (pair.first != spr::kInvalidNode) c.pairs.push_back(pair);
    }
    c.packets = sizes.packets;
    c.packet_interval = sizes.packet_interval;
    const double span_s = sizes.packets * sizes.packet_interval;
    c.waves = spr::spread_failure_waves(net->graph(), c.pairs, 0.02, 4, span_s, rng);
    c.mobility_interval = span_s / (sizes.repins + 1);
    c.mobility_dt = 2.0;
    c.seed = mix_seed(options.seed, tag + 13);
    c.threads = kPoolThreads;
  }
  Span span("sim.construct");
  s.sim.emplace(std::move(*net), s.config);
}

void digest_stats(Digest& d, const spr::StreamStats& stats) {
  d.add(stats.virtual_time);
  d.add(stats.events);
  d.add(stats.repins);
  auto relabel = [&d](const spr::IncrementalStats& r) {
    d.add(r.seeds);
    d.add(r.reevaluations);
    d.add(r.flips);
    d.add(r.promotions);
    d.add(r.anchor_recomputes);
    d.add(r.arena_high_water);
  };
  for (const auto& w : stats.waves) {
    d.add(w.time);
    d.add(w.casualties);
    d.add(w.packets_in_flight);
    d.add(w.packets_dropped);
    relabel(w.relabel);
  }
  for (const auto& r : stats.repin_records) {
    d.add(r.time);
    d.add(r.moved);
    d.add(r.edges_added);
    d.add(r.edges_removed);
    d.add(r.packets_in_flight);
    d.add(r.packets_dropped);
    relabel(r.relabel);
  }
  for (const auto& s : stats.schemes) {
    for (char c : s.label) d.add(c);
    d.add(s.injected);
    d.add(s.delivered);
    d.add(s.dead_end);
    d.add(s.ttl_expired);
    d.add(s.node_failed);
    for (const spr::Summary* x : {&s.hops, &s.length, &s.stretch_hops, &s.latency,
                                  &s.replans, &s.local_minima}) {
      d.add_values(x->values());
    }
  }
}

/// Outcome checks of one run; returns the finished flights.
std::size_t check_stats(Result& result, const spr::StreamConfig& config,
                        const spr::StreamStats& stats) {
  std::size_t finished = 0;
  const auto packets = static_cast<std::size_t>(config.packets);
  result.check(stats.schemes.size() == config.schemes.size(), packets * config.schemes.size(),
               "stream scheme count");
  for (const auto& s : stats.schemes) {
    const std::size_t ended = s.delivered + s.dead_end + s.ttl_expired + s.node_failed;
    finished += ended;
    result.check(s.injected == packets && ended == s.injected &&
                     s.hops.count() == s.delivered && s.latency.count() == s.delivered &&
                     s.replans.count() == s.injected,
                 packets, s.label + " outcome counts do not sum to its injected flights");
    result.check(s.hops.empty() || s.hops.min() >= 1.0, packets,
                 s.label + " delivered a route of zero hops");
  }
  result.check(stats.waves.size() == config.waves.size(), packets * config.schemes.size(),
               "stream wave count");
  return finished;
}

/// One barrier of the recorded sequence.
struct Barrier {
  double time;
  bool wave;
  std::size_t index;  ///< into config.waves / stats.repin_records
};

std::vector<Barrier> barriers_of(const spr::StreamConfig& config,
                                 const spr::StreamStats& stats) {
  std::vector<Barrier> out;
  // Waves fire in time order (stable by index), like the simulator's
  // schedule; a wave and a re-pin at one instant fire wave first.
  std::vector<std::size_t> order(config.waves.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return config.waves[a].time < config.waves[b].time;
  });
  for (std::size_t i : order) out.push_back({config.waves[i].time, true, i});
  for (std::size_t i = 0; i < stats.repin_records.size(); ++i) {
    out.push_back({stats.repin_records[i].time, false, i});
  }
  std::stable_sort(out.begin(), out.end(), [](const Barrier& a, const Barrier& b) {
    return a.time != b.time ? a.time < b.time : a.wave && !b.wave;
  });
  return out;
}

/// Epoch of a packet injected at `t`: an injection at a barrier's instant
/// fires before it.
std::size_t epoch_of(const std::vector<Barrier>& barriers, double t) {
  std::size_t e = 0;
  while (e < barriers.size() && barriers[e].time < t) ++e;
  return e;
}

/// Share of flights whose (scheme, src, dst) already flew in their epoch.
double repeat_share(const spr::StreamConfig& config, const std::vector<Barrier>& barriers) {
  std::set<std::tuple<std::size_t, spr::NodeId, spr::NodeId>> seen;
  std::size_t repeats = 0;
  for (int p = 0; p < config.packets; ++p) {
    const auto& [s, d] = config.pairs[static_cast<std::size_t>(p) % config.pairs.size()];
    const std::size_t e = epoch_of(barriers, p * config.packet_interval);
    repeats += !seen.insert({e, s, d}).second;
  }
  return config.packets > 0 ? static_cast<double>(repeats) / config.packets : 0.0;
}

struct ReplayCounts {
  UpdateCounts updates;
  double oracle_searches = 0, barriers = 0;
};

/// Replays the run's barriers through the layer calls, checks each one
/// against its record and the end state against the simulator's.
void replay(const StreamSetup& s, const spr::StreamStats& stats,
            Result& result, ReplayCounts& counts) {
  const spr::StreamConfig& config = s.config;
  const std::vector<Barrier> barriers = barriers_of(config, stats);
  std::vector<bool> injects(barriers.size() + 1, false);  // per epoch
  for (int p = 0; p < config.packets; ++p) {
    injects[epoch_of(barriers, p * config.packet_interval)] = true;
  }
  // The replay's own initial labeling is set-up: its spans are dropped
  // from the budget.
  LayeredNet net(s.deployment, nullptr, counts.updates);
  spr::WaypointConfig waypoint = config.waypoint;
  waypoint.field = s.deployment.field;
  spr::WaypointModel mobility(s.deployment.positions, waypoint, spr::Rng(config.seed ^ 0x5712));
  std::vector<std::unique_ptr<spr::Router>> routers;
  auto rebuild_routers = [&] {
    Span span("routing.router_build");
    routers.clear();
    routers.push_back(std::make_unique<spr::LgfRouter>(net.graph()));
    routers.push_back(std::make_unique<spr::SlgfRouter>(net.graph(), net.safety()));
    routers.push_back(std::make_unique<spr::Slgf2Router>(net.graph(), net.safety()));
  };
  auto epoch_oracle = [&] {
    Span span("graph.oracle");
    std::vector<std::pair<spr::NodeId, spr::NodeId>> eligible;
    for (const auto& [src, dst] : config.pairs) {
      if (net.graph().alive(src)) eligible.push_back({src, dst});
    }
    const spr::OracleSearchCounts c0 = spr::oracle_search_counts();
    spr::OracleBatch batch(net.graph(), eligible, nullptr, spr::OracleBatch::Metrics::kHopsOnly);
    counts.oracle_searches += static_cast<double>(spr::oracle_search_counts().bfs_trees - c0.bfs_trees);
  };
  auto same = [](const spr::IncrementalStats& a, const spr::IncrementalStats& b) {
    return a.seeds == b.seeds && a.reevaluations == b.reevaluations && a.flips == b.flips &&
           a.promotions == b.promotions && a.anchor_recomputes == b.anchor_recomputes &&
           a.arena_high_water == b.arena_high_water;
  };
  const std::size_t flights = static_cast<std::size_t>(config.packets) * config.schemes.size();
  if (injects[0]) epoch_oracle();
  std::size_t wave_record = 0;
  for (std::size_t b = 0; b < barriers.size(); ++b) {
    const Barrier& barrier = barriers[b];
    TaskScope scope(-1, b + 1);
    counts.barriers += 1;
    if (barrier.wave) {
      const spr::WaveRecord& record = stats.waves[wave_record++];
      std::vector<spr::NodeId> casualties;
      for (spr::NodeId u : config.waves[barrier.index].casualties) {
        if (u < net.graph().size() && net.graph().alive(u)) casualties.push_back(u);
      }
      result.check(casualties.size() == record.casualties, flights,
                   "replayed wave kills a different node count");
      if (casualties.empty()) continue;
      const spr::IncrementalStats r = net.fail(casualties);
      result.check(same(r, record.relabel), flights, "replayed wave relabels differently");
    } else {
      const spr::RepinRecord& record = stats.repin_records[barrier.index];
      {
        Span span("mobility.advance");
        mobility.advance(config.mobility_dt);
      }
      spr::EdgeDiff diff;
      const spr::IncrementalStats r = net.move(mobility.positions(), diff);
      result.check(same(r, record.relabel) && diff.moved_nodes == record.moved &&
                       diff.added.size() == record.edges_added &&
                       diff.removed.size() == record.edges_removed,
                   flights, "replayed re-pin differs from its record");
    }
    rebuild_routers();
    if (injects[b + 1]) epoch_oracle();
  }
  result.check(net.safety() == s.sim->network().safety(), flights,
               "replayed labeling differs from the simulator's");
}

}  // namespace

int run_stream(const Options& options, Result& result) {
  std::vector<double> setup_times, walls, traced_walls, rates;
  std::vector<std::pair<double, double>> run_windows, setup_windows, replay_windows;
  std::string reference, draw_digest;
  ProcTotals proc;
  double events = 0, replans = 0, repeat = 0;
  ReplayCounts counts;
  run_jobs(options, [&](int draw, bool traced) {
    StreamSetup setup;
    const double s0 = now_s();
    build_setup(options, draw, setup);
    const double s1 = now_s();
    setup_times.push_back(s1 - s0);
    if (!traced) proc.start();
    const double t0 = now_s();
    spr::StreamStats stats;
    {
      Span span("sim.run");
      stats = setup.sim->run();
    }
    const double t1 = now_s();
    if (!traced) proc.stop();
    const std::size_t finished = check_stats(result, setup.config, stats);
    result.operations(static_cast<std::size_t>(setup.config.packets) *
                      setup.config.schemes.size());
    Digest digest;
    digest_stats(digest, stats);
    digest_safety(digest, setup.sim->network().safety());
    if (reference.empty()) reference = digest.hex();
    if (traced) {
      result.check(digest.hex() == draw_digest, finished,
                   "traced stream differs from the untraced run of its draw");
    }
    draw_digest = digest.hex();
    if (!traced) {
      walls.push_back(t1 - t0);
      rates.push_back(static_cast<double>(finished) / (t1 - t0));
      return;
    }
    traced_walls.push_back(t1 - t0);
    setup_windows.emplace_back(s0, s1);
    run_windows.emplace_back(t0, t1);
    events += static_cast<double>(stats.events);
    for (const auto& s : stats.schemes) replans += s.replans.sum();
    repeat = repeat_share(setup.config, barriers_of(setup.config, stats));
    const double r0 = now_s();
    replay(setup, stats, result, counts);
    replay_windows.emplace_back(r0, now_s());
  });
  result.set_digest(reference);

  result.metric("setup_s", median(setup_times), "s");
  result.metric("job_s", median(walls), "s");
  result.samples("setup_s", setup_times);
  result.samples("job_s", walls);
  result.metric("flights_per_s", median(rates), "flights/s");
  result.metric("peak_rss_mb", proc_counters().peak_rss_mb, "MB");
  proc.report(result);

  if (options.trace) {
    const double traced_jobs = static_cast<double>(traced_walls.size());
    const std::vector<SpanRecord> spans = Tracer::instance().spans();
    Budget setup;
    for (const auto& [a, b] : setup_windows) add_window(setup, spans, a, b, false);
    report_calls(result, setup.rows);
    // The run is one span; the replayed barrier layers stand in for the
    // part of it spent at barriers, and sim.run keeps the rest as self.
    Budget budget;
    for (const auto& [a, b] : run_windows) add_window(budget, spans, a, b);
    Budget replayed;
    for (const auto& [a, b] : replay_windows) add_window(replayed, spans, a, b, false);
    double barrier_s = 0.0;
    for (const auto& [name, row] : replayed.rows) {
      // The replay's initial labeling stands in for nothing inside the run.
      if (name == "graph.build" || name == "graph.zones" || name == "safety.label") continue;
      budget.rows[name] = row;
      barrier_s += row.self_s;
    }
    LayerRow& run = budget.rows["sim.run"];
    run.self_s -= barrier_s;
    report_layers(result, budget,
                  {"sim.run", "graph.oracle", "graph.with_failures", "safety.failures",
                   "graph.with_moves", "safety.moves", "mobility.advance",
                   "routing.router_build"});
    result.metric("sim.self_ms", 1e3 * run.self_s / traced_jobs, "ms");
    result.metric("sim.events", events / traced_jobs, "count");
    result.metric("sim.replans", replans / traced_jobs, "count");
    result.metric("sim.barriers", counts.barriers / traced_jobs, "count");
    result.metric("sim.repeat_share", repeat, "share");
    counts.updates.report(result, traced_jobs);
    result.metric("graph.oracle_searches", counts.oracle_searches / traced_jobs, "count");
    result.metric("trace.overhead", median(traced_walls) / median(walls) - 1.0, "share");
  }
  return 0;
}

}  // namespace perfbench
