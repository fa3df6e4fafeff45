#include "sim/stream_sim.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>

#include "core/scenario.h"
#include "graph/graph_algos.h"
#include "report/serialize.h"
#include "report/sink.h"
#include "test_helpers.h"
#include "util/check.h"

namespace spr {
namespace {

std::pair<NodeId, NodeId> far_pair(const Network& net, std::uint64_t seed) {
  Rng rng(seed);
  NodeId s = kInvalidNode, d = kInvalidNode;
  double best = -1.0;
  for (int trial = 0; trial < 16; ++trial) {
    auto pair = net.random_connected_interior_pair(rng);
    if (pair.first == kInvalidNode) continue;
    double dist =
        distance(net.graph().position(pair.first), net.graph().position(pair.second));
    if (dist > best) {
      best = dist;
      s = pair.first;
      d = pair.second;
    }
  }
  return {s, d};
}

/// The report text of `stats`, then the bit pattern of every Summary
/// sample in each scheme's member list: two runs give the same string only
/// when they also agree on the sign of every zero, which `==` (like
/// double ==) does not check.
std::string stream_bits(const StreamStats& stats) {
  std::string out = stream_stats_json(stats).dump();
  auto append_bits = [&](const StreamSchemeStats& s, const auto& entry) {
    if constexpr (requires { (s.*entry.member).values(); }) {
      for (double v : (s.*entry.member).values()) {
        out += ' ' + std::to_string(std::bit_cast<std::uint64_t>(v));
      }
    }
  };
  for (const StreamSchemeStats& s : stats.schemes) {
    std::apply([&](const auto&... entry) { (append_bits(s, entry), ...); },
               StreamSchemeStats::fields);
  }
  return out;
}

/// With no world events, the stream is the atomic route repeated: per
/// scheme, every packet walks route(s, d) exactly — same hops, length, and
/// an exact per-hop latency.
TEST(StreamSim, StaticStreamMatchesAtomicRoutePerScheme) {
  Network reference = test::random_network(500, 15, DeployModel::kForbiddenAreas);
  auto [s, d] = far_pair(reference, 0x15);
  ASSERT_NE(s, kInvalidNode);

  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 8;
  config.packet_interval = 1.0;
  config.hop_delay = 0.25;
  StreamSim sim(test::random_network(500, 15, DeployModel::kForbiddenAreas),
                config);
  StreamStats stats = sim.run();

  auto specs = SweepConfig::paper_schemes();
  ASSERT_EQ(stats.schemes.size(), specs.size());
  for (std::size_t k = 0; k < specs.size(); ++k) {
    const StreamSchemeStats& scheme = stats.schemes[k];
    PathResult atomic = reference.make_router(specs[k].scheme)->route(s, d);
    EXPECT_EQ(scheme.injected, 8u);
    EXPECT_EQ(scheme.label, specs[k].display_label());
    if (atomic.delivered()) {
      EXPECT_EQ(scheme.delivered, 8u) << scheme.label;
      EXPECT_DOUBLE_EQ(scheme.hops.mean(),
                       static_cast<double>(atomic.hops()));
      EXPECT_DOUBLE_EQ(scheme.hops.min(), scheme.hops.max());
      EXPECT_DOUBLE_EQ(scheme.length.mean(), atomic.length);
      // Hop-by-hop timing: h hops at 0.25 virtual seconds each.
      EXPECT_DOUBLE_EQ(scheme.latency.mean(),
                       0.25 * static_cast<double>(atomic.hops()));
      EXPECT_DOUBLE_EQ(scheme.replans.max(), 0.0);
    } else {
      EXPECT_EQ(scheme.delivered, 0u) << scheme.label;
    }
  }
  EXPECT_TRUE(stats.waves.empty());
}

/// A mid-stream blast: outcome counts stay consistent, the wave record
/// carries the incremental relabeling, and the incremental fixpoint
/// matches a from-scratch recompute.
TEST(StreamSim, MidStreamWaveRelabelsIncrementallyAndConsistently) {
  Network net = test::random_network(600, 4, DeployModel::kForbiddenAreas);
  auto [s, d] = far_pair(net, 0x44);
  ASSERT_NE(s, kInvalidNode);
  Vec2 mid = midpoint(net.graph().position(s), net.graph().position(d));
  StreamWave wave;
  wave.time = 5.0;
  for (NodeId u = 0; u < net.graph().size(); ++u) {
    if (u == s || u == d) continue;
    if (distance(net.graph().position(u), mid) <= 30.0) {
      wave.casualties.push_back(u);
    }
  }
  ASSERT_FALSE(wave.casualties.empty());

  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 12;
  config.packet_interval = 1.0;
  config.hop_delay = 0.5;  // several packets are mid-flight at t=5
  config.verify_relabeling = true;
  config.waves.push_back(wave);
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();

  ASSERT_EQ(stats.waves.size(), 1u);
  const WaveRecord& record = stats.waves.front();
  EXPECT_DOUBLE_EQ(record.time, 5.0);
  EXPECT_EQ(record.casualties, wave.casualties.size());
  EXPECT_TRUE(record.verified);
  EXPECT_TRUE(record.matches_full_recompute);
  EXPECT_GT(record.relabel.seeds, 0u);
  // Per-update scratch peak: the wave relabeled, so it allocated.
  EXPECT_GT(record.relabel.arena_high_water, 0u);

  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 12u);
    EXPECT_EQ(scheme.delivered + scheme.dead_end + scheme.ttl_expired +
                  scheme.node_failed,
              scheme.injected)
        << scheme.label;
  }
  // The post-run network is the degraded one.
  EXPECT_FALSE(sim.network().graph().alive(wave.casualties.front()));
}

/// Same (network, config) twice => identical stream stats, down to the
/// sign of every zero.
TEST(StreamSim, RunIsAPureFunctionOfItsInputs) {
  auto run_once = [] {
    Network net = test::random_network(500, 23, DeployModel::kForbiddenAreas);
    auto [s, d] = far_pair(net, 0x23);
    StreamConfig config;
    if (s != kInvalidNode) config.pairs.emplace_back(s, d);
    config.packets = 10;
    config.hop_delay = 0.5;
    StreamWave wave;
    wave.time = 3.0;
    for (NodeId u = 0; u < net.graph().size(); u += 17) {
      if (u != s && u != d) wave.casualties.push_back(u);
    }
    config.waves.push_back(std::move(wave));
    config.mobility_interval = 6.0;  // exercise the re-pin path too
    config.mobility_dt = 15.0;
    StreamSim sim(std::move(net), config);
    return sim.run();
  };
  StreamStats first = run_once();
  StreamStats second = run_once();
  EXPECT_TRUE(first == second);
  EXPECT_EQ(stream_bits(first), stream_bits(second));
  EXPECT_FALSE(first.schemes.empty());
}

/// No endpoints means no traffic: the run terminates immediately even
/// with mobility enabled (the re-pin loop must not wait for injections
/// that can never happen).
TEST(StreamSim, EmptyPairsTerminatesEvenWithMobility) {
  StreamConfig config;
  config.packets = 10;  // clamped: there is nothing to inject
  config.mobility_interval = 1.0;
  StreamSim sim(test::random_network(200, 3), config);
  StreamStats stats = sim.run();
  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 0u);
  }
  EXPECT_EQ(stats.repins, 0u);
}

/// A mobility re-pin continues the snapshot incrementally and records what
/// it did: moved nodes, the edge delta, and the bidirectional relabeling —
/// which, under verify_relabeling, must match a from-scratch
/// compute_safety at every epoch (statuses and anchors).
TEST(StreamSim, RepinContinuesLabelingIncrementallyAndVerified) {
  Network net = test::random_network(500, 61, DeployModel::kForbiddenAreas);
  auto [s, d] = far_pair(net, 0x61);
  ASSERT_NE(s, kInvalidNode);
  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 12;
  config.packet_interval = 1.0;
  config.hop_delay = 0.4;
  config.mobility_interval = 3.0;
  config.mobility_dt = 8.0;
  config.verify_relabeling = true;
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();

  ASSERT_GT(stats.repins, 0u);
  ASSERT_EQ(stats.repin_records.size(), stats.repins);
  for (const RepinRecord& record : stats.repin_records) {
    EXPECT_GT(record.moved, 0u);
    EXPECT_TRUE(record.verified);
    EXPECT_TRUE(record.matches_full_recompute)
        << "re-pin at t=" << record.time
        << ": incremental with_moves labeling diverged from compute_safety";
    EXPECT_GT(record.edges_added + record.edges_removed, 0u);
  }
}

/// Injection at a source killed by an earlier wave is a *defined* drop:
/// every scheme's copy is counted kNodeFailed, never UB.
TEST(StreamSim, InjectionAtDeadSourceCountsAsNodeFailed) {
  Network net = test::random_network(500, 71, DeployModel::kForbiddenAreas);
  auto [s, d] = far_pair(net, 0x71);
  ASSERT_NE(s, kInvalidNode);
  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 6;
  config.packet_interval = 1.0;
  config.hop_delay = 10.0;  // nothing delivers before the wave
  StreamWave wave;
  wave.time = 2.5;  // injections 0,1,2 pre-wave; 3,4,5 at a dead source
  wave.casualties.push_back(s);
  config.waves.push_back(wave);
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();

  ASSERT_EQ(stats.waves.size(), 1u);
  EXPECT_EQ(stats.waves.front().casualties, 1u);
  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 6u);
    // Packets 3..5 inject at the dead source; packets 0..2 were at most one
    // hop out with hop_delay 10, so their copies died with the carrier or
    // re-planned — either way the accounting stays closed.
    EXPECT_GE(scheme.node_failed, 3u) << scheme.label;
    EXPECT_EQ(scheme.delivered + scheme.dead_end + scheme.ttl_expired +
                  scheme.node_failed,
              scheme.injected)
        << scheme.label;
  }
}

/// An out-of-range source id is equally defined: every copy drops as
/// kNodeFailed (and an out-of-range destination cannot crash either).
TEST(StreamSim, OutOfRangeEndpointsAreDefinedDrops) {
  Network net = test::random_network(300, 9);
  NodeId far_id = static_cast<NodeId>(net.graph().size() + 17);
  StreamConfig config;
  config.pairs.emplace_back(far_id, NodeId{3});
  config.pairs.emplace_back(NodeId{3}, far_id);
  config.packets = 4;
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();
  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 4u);
    // Packets 0 and 2 (dead source) drop; 1 and 3 route toward a
    // nonexistent destination and end in a defined non-delivered outcome.
    EXPECT_GE(scheme.node_failed, 2u);
    EXPECT_EQ(scheme.delivered, 0u);
    EXPECT_EQ(scheme.delivered + scheme.dead_end + scheme.ttl_expired +
                  scheme.node_failed,
              scheme.injected);
  }
}

/// Hostile timing is rejected where it enters: a NaN, infinite or negative
/// interval, delay or waypoint step, or a non-finite wave time, fails the
/// constructor's checks before any event reaches the heap (a NaN time
/// would break the heap order and silently split the two modes).
TEST(StreamSim, HostileTimingFailsAtConstruction) {
  ScopedCheckHandler guard(throwing_check_handler);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  StreamConfig base;
  base.pairs.emplace_back(NodeId{3}, NodeId{40});
  base.packets = 4;
  base.packet_interval = 0.0;  // zero is a valid interval, delay and step
  base.hop_delay = 0.0;
  base.mobility_dt = 0.0;
  EXPECT_NO_THROW(StreamSim(test::random_network(200, 5), base).run());

  using Timing = double StreamConfig::*;
  const std::pair<Timing, const char*> fields[] = {
      {&StreamConfig::packet_interval, "packet_interval"},
      {&StreamConfig::hop_delay, "hop_delay"},
      {&StreamConfig::mobility_interval, "mobility_interval"},
      {&StreamConfig::mobility_dt, "mobility_dt"},
  };
  for (const auto& [field, name] : fields) {
    for (double bad : {nan, inf, -inf, -1.0}) {
      StreamConfig config = base;
      config.*field = bad;
      EXPECT_THROW(StreamSim(test::random_network(200, 5), config),
                   CheckError)
          << name << " = " << bad;
    }
  }
  for (double bad : {nan, inf, -inf}) {
    StreamConfig config = base;
    StreamWave wave;
    wave.time = bad;
    config.waves.push_back(wave);
    EXPECT_THROW(StreamSim(test::random_network(200, 5), config), CheckError)
        << "wave time " << bad;
  }
  // A tiny finite re-pin interval would re-pin without bound. A 3 s
  // injection span plus a 1600-hop TTL at 0.25 s per hop lets 0.01 fire
  // about 4 x 10^4 re-pins, under the cap, and 1e-10 about 4 x 10^12.
  for (StreamEngine engine :
       {StreamEngine::kFlightRecord, StreamEngine::kPerHopEvents}) {
    StreamConfig config = base;
    config.packet_interval = 1.0;
    config.hop_delay = 0.25;
    config.engine = engine;
    config.mobility_interval = 0.01;
    EXPECT_NO_THROW(StreamSim(test::random_network(200, 5), config));
    for (double tiny : {1e-10, 1e-300}) {
      config.mobility_interval = tiny;
      EXPECT_THROW(StreamSim(test::random_network(200, 5), config),
                   CheckError)
          << "mobility_interval = " << tiny;
    }
  }
}

/// A re-pin pushed where its interval cannot move the clock would re-fire
/// at one instant for as long as traffic remains. With both intervals at
/// 1e308 the third packet injects at t = inf, where the next re-pin would
/// land at inf again: the push fails its check, in both modes.
TEST(StreamSim, RepinThatCannotAdvanceTheClockFailsItsCheck) {
  ScopedCheckHandler guard(throwing_check_handler);
  for (StreamEngine engine :
       {StreamEngine::kFlightRecord, StreamEngine::kPerHopEvents}) {
    Network net = test::random_network(300, 9);
    auto [s, d] = far_pair(net, 0x9);
    ASSERT_NE(s, kInvalidNode);
    StreamConfig config;
    config.pairs.emplace_back(s, d);
    config.packets = 3;
    config.packet_interval = 1e308;
    config.mobility_interval = 1e308;
    config.engine = engine;
    StreamSim sim(std::move(net), config);
    EXPECT_THROW(sim.run(), CheckError);
  }
}

/// spread_failure_waves clamps its fraction to [0, 1] before scaling and
/// casting it (the cast of an out-of-range double is undefined): inf and
/// 1e30 draw exactly the schedule 1.0 draws, and NaN kills nobody.
TEST(StreamSim, SpreadFailureWavesClampsTheFraction) {
  Network net = test::random_network(300, 9);
  const std::pair<NodeId, NodeId> endpoints[] = {{NodeId{1}, NodeId{2}}};
  auto schedule = [&net, &endpoints](double fraction) {
    Rng rng(4);
    return spread_failure_waves(net.graph(), endpoints, fraction, 4, 10.0,
                                rng);
  };
  const std::vector<StreamWave> all = schedule(1.0);
  ASSERT_EQ(all.size(), 4u);
  std::size_t killed = 0;
  for (const StreamWave& wave : all) killed += wave.casualties.size();
  EXPECT_EQ(killed, net.graph().size() - 2);  // everyone but the endpoints
  for (double huge : {std::numeric_limits<double>::infinity(), 1e30}) {
    const std::vector<StreamWave> got = schedule(huge);
    ASSERT_EQ(got.size(), all.size()) << huge;
    for (std::size_t w = 0; w < all.size(); ++w) {
      EXPECT_EQ(got[w].time, all[w].time) << huge;
      EXPECT_EQ(got[w].casualties, all[w].casualties) << huge;
    }
  }
  EXPECT_TRUE(schedule(std::numeric_limits<double>::quiet_NaN()).empty());
}

/// The same-timestamp tie: an injection due exactly at a wave's timestamp
/// fires *before* the wave (FIFO push order — injections are scheduled
/// first), sees the pre-wave substrate, and its copies are then
/// immediately dropped by the wave when the wave kills their carrier.
TEST(StreamSim, InjectionAtWaveTimestampFiresBeforeTheWave) {
  Network net = test::random_network(500, 83, DeployModel::kForbiddenAreas);
  auto [s, d] = far_pair(net, 0x83);
  ASSERT_NE(s, kInvalidNode);
  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 3;
  config.packet_interval = 1.0;
  config.hop_delay = 10.0;  // injected copies sit at the source
  StreamWave wave;
  wave.time = 2.0;  // exactly the third packet's injection time
  wave.casualties.push_back(s);
  config.waves.push_back(wave);
  const std::size_t n_schemes = SweepConfig::paper_schemes().size();
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();

  ASSERT_EQ(stats.waves.size(), 1u);
  const WaveRecord& record = stats.waves.front();
  // The t=2 injection ran first: its copies (and the two earlier packets',
  // all still at the source) were alive in-flight when the wave hit, so
  // the wave — not the injection handler — dropped them.
  EXPECT_EQ(record.packets_dropped, 3 * n_schemes);
  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 3u);
    EXPECT_EQ(scheme.node_failed, 3u) << scheme.label;
  }
}

/// A mobility re-pin rebuilds the snapshot but must not resurrect nodes
/// killed by an earlier failure wave.
TEST(StreamSim, RepinKeepsWaveCasualtiesDead) {
  Network net = test::random_network(400, 27);
  auto [s, d] = far_pair(net, 0x27);
  ASSERT_NE(s, kInvalidNode);
  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 12;
  config.packet_interval = 1.0;
  config.hop_delay = 0.4;
  config.mobility_interval = 4.5;  // re-pins fire after the wave
  config.mobility_dt = 10.0;
  StreamWave wave;
  wave.time = 2.0;
  for (NodeId u = 0; u < 30; ++u) {
    if (u != s && u != d) wave.casualties.push_back(u);
  }
  config.waves.push_back(wave);
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();
  ASSERT_GT(stats.repins, 0u);
  for (NodeId u : wave.casualties) {
    EXPECT_FALSE(sim.network().graph().alive(u)) << "node " << u
                                                 << " came back to life";
  }
}

/// Mobility re-pins happen while traffic remains and stop afterwards (the
/// event queue drains), and outcome accounting stays consistent.
TEST(StreamSim, MobilityRepinsRebuildTheSnapshot) {
  Network net = test::random_network(450, 31);
  auto [s, d] = far_pair(net, 0x31);
  ASSERT_NE(s, kInvalidNode);
  StreamConfig config;
  config.pairs.emplace_back(s, d);
  config.packets = 10;
  config.packet_interval = 1.0;
  config.hop_delay = 0.4;
  config.mobility_interval = 2.5;
  config.mobility_dt = 10.0;
  StreamSim sim(std::move(net), config);
  StreamStats stats = sim.run();
  EXPECT_GT(stats.repins, 0u);
  for (const StreamSchemeStats& scheme : stats.schemes) {
    EXPECT_EQ(scheme.injected, 10u);
    EXPECT_EQ(scheme.delivered + scheme.dead_end + scheme.ttl_expired +
                  scheme.node_failed,
              scheme.injected);
  }
}

/// The acceptance contract of the flight-record mode: everything in
/// StreamStats except `events` is byte-identical to the per-hop reference
/// mode — across seeds, failure waves, mobility re-pins, their
/// combination, and thread counts — and tick batching pops strictly fewer
/// heap events than one-event-per-hop. The flight-record `events` count is
/// pinned per case and equal at 1, 2 and 4 threads: the perfbench digest
/// hashes it.
TEST(StreamSim, FlightRecordEngineMatchesPerHopReferenceByteForByte) {
  struct Case {
    const char* shape = "";
    std::uint64_t seed = 23;
    bool waves = false;
    double mobility_interval = 0.0;  ///< 0 = no re-pins
    std::size_t pairs = 1;
    int packets = 10;
    double packet_interval = 1.0;
    double hop_delay = 0.5;
    double wave_time = 3.0;
    std::size_t events = 0;  ///< flight-record heap pops
  };
  const Case cases[] = {
      {.shape = "plain", .events = 10},
      {.shape = "waves", .waves = true, .events = 13},
      {.shape = "mobility", .mobility_interval = 2.5, .events = 22},
      {.shape = "waves+mobility",
       .waves = true,
       .mobility_interval = 2.5,
       .events = 25},
      {.shape = "waves+mobility",
       .seed = 61,
       .waves = true,
       .mobility_interval = 2.5,
       .events = 25},
      {.shape = "mobility",
       .seed = 83,
       .mobility_interval = 2.5,
       .events = 20},
      // Every packet in the air at once: the batch after the wave holds
      // 160 tick survivors, over the 64 the pooled step needs.
      {.shape = "all at once",
       .waves = true,
       .packets = 40,
       .packet_interval = 0.0,
       .hop_delay = 0.25,
       .wave_time = 1.0,
       .events = 42},
      // Three pairs: each epoch holds memo repeats of several keys.
      {.shape = "three pairs",
       .waves = true,
       .mobility_interval = 2.5,
       .pairs = 3,
       .packets = 30,
       .packet_interval = 0.25,
       .events = 63},
      // Re-pins closer than a hop: a flight parked for one re-pin lands
      // on the next re-pin's instant, and its tick pops before that re-pin.
      {.shape = "re-pins inside a hop",
       .mobility_interval = 0.25,
       .packets = 6,
       .events = 102},
      // Every other injection shares a re-pin's instant and pops first.
      {.shape = "injections at re-pins",
       .waves = true,
       .mobility_interval = 1.0,
       .packet_interval = 0.5,
       .events = 34},
      // Zero hop delay: a walk runs at one instant, and the injection at
      // the wave's instant parks there until the wave has fired.
      {.shape = "zero hop delay",
       .waves = true,
       .hop_delay = 0.0,
       .events = 12},
      // Sixteen pairs: an epoch arms 64 first walks at once, so the fresh
      // injections take the pooled step at 2 and 4 threads.
      {.shape = "sixteen pairs",
       .waves = true,
       .mobility_interval = 2.5,
       .pairs = 16,
       .packets = 64,
       .packet_interval = 0.125,
       .events = 97},
      // 4400 copies at once: the batch flushes at its 4096-entry cap
      // before the wave, and 4092 repeats that cross the wave step on the
      // pool.
      {.shape = "past the batch cap",
       .waves = true,
       .packets = 1100,
       .packet_interval = 0.0,
       .hop_delay = 0.25,
       .wave_time = 1.0,
       .events = 1102},
  };
  for (const Case& c : cases) {
    auto run = [&c](StreamEngine engine, int threads, std::size_t* events) {
      Network net =
          test::random_network(500, c.seed, DeployModel::kForbiddenAreas);
      StreamConfig config;
      auto first = far_pair(net, c.seed);
      if (first.first != kInvalidNode) config.pairs.push_back(first);
      Rng rng(c.seed ^ 0x9a1);
      for (std::size_t trial = 0;
           trial < 64 * c.pairs && config.pairs.size() < c.pairs; ++trial) {
        auto pair = net.random_connected_interior_pair(rng);
        if (pair.first != kInvalidNode) config.pairs.push_back(pair);
      }
      config.packets = c.packets;
      config.packet_interval = c.packet_interval;
      config.hop_delay = c.hop_delay;
      if (c.waves) {
        StreamWave wave;
        wave.time = c.wave_time;
        for (NodeId u = 0; u < net.graph().size(); u += 17) {
          bool endpoint = false;
          for (const auto& [s, d] : config.pairs) endpoint |= u == s || u == d;
          if (!endpoint) wave.casualties.push_back(u);
        }
        config.waves.push_back(std::move(wave));
      }
      config.mobility_interval = c.mobility_interval;
      config.mobility_dt = 10.0;
      config.engine = engine;
      config.threads = threads;
      StreamSim sim(std::move(net), config);
      StreamStats stats = sim.run();
      *events = stats.events;
      stats.events = 0;  // the one field the engines legitimately differ on
      return stats;
    };
    const std::string where = "seed " + std::to_string(c.seed) + " " + c.shape;
    std::size_t ref_events = 0;
    std::size_t tick_events = 0;
    StreamStats ref = run(StreamEngine::kPerHopEvents, 1, &ref_events);
    StreamStats tick = run(StreamEngine::kFlightRecord, 1, &tick_events);
    // Struct equality sees every field; the report text and the sample
    // bits also see the sign of zero.
    EXPECT_TRUE(tick == ref) << where;
    EXPECT_EQ(stream_bits(tick), stream_bits(ref)) << where;
    EXPECT_EQ(tick_events, c.events) << where;
    for (int threads : {2, 4}) {
      std::size_t threaded_events = 0;
      StreamStats threaded =
          run(StreamEngine::kFlightRecord, threads, &threaded_events);
      EXPECT_TRUE(threaded == tick)
          << where << ": " << threads << " threads changed the stats";
      EXPECT_EQ(stream_bits(threaded), stream_bits(tick))
          << where << ": " << threads << " threads changed the report";
      EXPECT_EQ(threaded_events, c.events) << where << ", " << threads
                                           << " threads";
    }
    // With a shared hop_delay the dyadic tick times collide across flights,
    // so batching must collapse the heap traffic, not just relabel it.
    EXPECT_LT(tick_events, ref_events) << where;
  }
}

/// The streaming-delivery scenario's JSON report is byte-identical across
/// reruns and across thread counts: it is a pure function of the options
/// and the seed.
TEST(StreamingDeliveryScenario, JsonReportIdenticalSerialVsThreaded) {
  auto render = [](int threads) {
    ScenarioOptions opts;
    opts.networks = 1;
    opts.pairs = 6;
    opts.threads = threads;
    const Scenario* scenario =
        ScenarioSuite::builtin().find("streaming-delivery");
    EXPECT_NE(scenario, nullptr);
    ScenarioReport report;
    report.scenario = scenario->name;
    EXPECT_EQ(scenario->build(opts, report), 0);
    return JsonSink::render(report);
  };
  std::string serial = render(1);
  std::string threaded = render(4);
  std::string threaded_again = render(4);
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(threaded, threaded_again);
}

/// The mobility-rate scenario's JSON report is byte-identical across
/// reruns and across thread counts, like streaming-delivery.
TEST(MobilityRateScenario, JsonReportIdenticalSerialVsThreaded) {
  auto render = [](int threads) {
    ScenarioOptions opts;
    opts.networks = 1;
    opts.pairs = 6;
    opts.threads = threads;
    const Scenario* scenario = ScenarioSuite::builtin().find("mobility-rate");
    EXPECT_NE(scenario, nullptr);
    ScenarioReport report;
    report.scenario = scenario->name;
    EXPECT_EQ(scenario->build(opts, report), 0);
    return JsonSink::render(report);
  };
  std::string serial = render(1);
  std::string threaded = render(4);
  std::string threaded_again = render(4);
  EXPECT_EQ(serial, threaded);
  EXPECT_EQ(threaded, threaded_again);
}

}  // namespace
}  // namespace spr
