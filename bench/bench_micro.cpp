/// \file bench_micro.cpp
/// google-benchmark microbenchmarks for the substrate: unit-disk graph
/// construction, planarization, safety labeling (centralized fixpoint and
/// distributed protocol), BOUNDHOLE, and per-packet routing of each scheme.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <vector>

#include "core/experiment.h"
#include "core/network.h"
#include "deploy/deployment.h"
#include "deploy/interest_area.h"
#include "graph/graph_algos.h"
#include "graph/quadrant_csr.h"
#include "mobility/waypoint.h"
#include "report/serialize.h"
#include "safety/distributed.h"
#include "shard/sharded_network.h"
#include "sim/stream_sim.h"
#include "util/task_pool.h"

namespace {

using namespace spr;

Deployment make_deployment(int n, DeployModel model) {
  DeploymentConfig config;
  config.node_count = n;
  config.model = model;
  Rng rng(1234);
  return deploy(config, rng);
}

/// A deployment whose field side grows with sqrt(n/600), holding the mean
/// degree at the paper's default (~18.8) so per-node work is comparable
/// across sizes; forbidden areas scale with the field so holes stay
/// proportionally sized.
Deployment make_scaled_deployment(int n, DeployModel model) {
  DeploymentConfig config;
  config.node_count = n;
  config.model = model;
  const double scale = std::sqrt(static_cast<double>(n) / 600.0);
  if (scale > 1.0) {
    config.field = Rect::from_bounds({0.0, 0.0}, {200.0 * scale, 200.0 * scale});
    config.min_forbidden_extent *= scale;
    config.max_forbidden_extent *= scale;
    config.forbidden_margin *= scale;
  }
  Rng rng(1234);
  return deploy(config, rng);
}

/// The positions -> topology layers over constant-degree scaled fields:
/// the spatial grid plus the unit-disk CSR, serial and on a 4-worker pool
/// (the field's build pool), and the interest area (hull plus edge flags).
void unit_disk_build_bench(benchmark::State& state, TaskPool* pool) {
  Deployment dep = make_scaled_deployment(static_cast<int>(state.range(0)),
                                          DeployModel::kIdeal);
  for (auto _ : state) {
    UnitDiskGraph g(dep.positions, dep.radio_range, dep.field, pool);
    benchmark::DoNotOptimize(g.edge_count());
  }
}
void BM_UnitDiskBuild(benchmark::State& state) {
  unit_disk_build_bench(state, nullptr);
}
void BM_UnitDiskBuildParallel(benchmark::State& state) {
  TaskPool pool(4);
  unit_disk_build_bench(state, &pool);
}
BENCHMARK(BM_UnitDiskBuild)->Arg(400)->Arg(800)->Arg(10000)->Arg(100000);
BENCHMARK(BM_UnitDiskBuildParallel)->Arg(10000)->Arg(100000);

void BM_InterestArea(benchmark::State& state) {
  Deployment dep = make_scaled_deployment(static_cast<int>(state.range(0)),
                                          DeployModel::kForbiddenAreas);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  for (auto _ : state) {
    InterestArea area(g, g.range());
    benchmark::DoNotOptimize(area.edge_count());
  }
}
BENCHMARK(BM_InterestArea)->Arg(10000)->Arg(100000);

void BM_GabrielOverlay(benchmark::State& state) {
  Deployment dep = make_deployment(static_cast<int>(state.range(0)),
                                   DeployModel::kIdeal);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  for (auto _ : state) {
    PlanarOverlay overlay(g);
    benchmark::DoNotOptimize(overlay.edge_count());
  }
}
BENCHMARK(BM_GabrielOverlay)->Arg(400)->Arg(800);

/// The safety-labeling fixpoint + anchor pass (safety/flat_kernel.h) at
/// paper sizes and at 10^4-10^5 nodes (constant-degree scaled fields). The
/// quadrant CSR is warmed outside the loop — it is built once per topology
/// epoch in every real consumer, so steady-state labeling cost is what the
/// kernel pays on top of it. Three variants over the same graphs:
///
///  * BM_SafetyLabeling        — the flat kernel, serial (the default path);
///  * BM_SafetyLabelingScalar  — the per-node tuple oracle it replaced;
///  * BM_SafetyLabelingParallel — the flat kernel on a 4-worker pool.
///
/// `flips`/`pushes` counters expose the kernel's work volume (identical
/// between flat and scalar at the same size: the fixpoint is unique).
enum class LabelMode { kFlat, kScalar, kParallel };

void safety_labeling_bench(benchmark::State& state, LabelMode mode) {
  Deployment dep = make_scaled_deployment(static_cast<int>(state.range(0)),
                                          DeployModel::kForbiddenAreas);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  InterestArea area(g, g.range());
  g.zones();  // once-per-epoch structure: warm it so the loop times labeling
  TaskPool pool(4);
  LabelingStats stats;
  for (auto _ : state) {
    SafetyInfo info =
        mode == LabelMode::kScalar
            ? compute_safety_scalar(g, area, &stats)
            : compute_safety(g, area,
                             mode == LabelMode::kParallel ? &pool : nullptr,
                             &stats);
    benchmark::DoNotOptimize(info.unsafe_node_count());
  }
  state.counters["flips"] = static_cast<double>(stats.init_flips + stats.flips);
  state.counters["pushes"] = static_cast<double>(stats.pushes);
}

void BM_SafetyLabeling(benchmark::State& state) {
  safety_labeling_bench(state, LabelMode::kFlat);
}
void BM_SafetyLabelingScalar(benchmark::State& state) {
  safety_labeling_bench(state, LabelMode::kScalar);
}
void BM_SafetyLabelingParallel(benchmark::State& state) {
  safety_labeling_bench(state, LabelMode::kParallel);
}
BENCHMARK(BM_SafetyLabeling)->Arg(400)->Arg(800)->Arg(10000)->Arg(100000);
BENCHMARK(BM_SafetyLabelingScalar)->Arg(400)->Arg(800)->Arg(10000)->Arg(100000);
BENCHMARK(BM_SafetyLabelingParallel)->Arg(10000)->Arg(100000);


/// End-to-end spatial-tile sharding (shard/sharded_network.h): owner-list
/// build + halo-synced labeling + one +-4 m mobility epoch (nodes near a
/// tile border change owner), over a constant-degree scaled field. Args
/// are {nodes, tiles per side}; the
/// 4-worker pool parallelizes per-tile work. The million-node registration
/// runs a single iteration — it is the scale demonstration, not a
/// steady-state timing.
void BM_ShardedLabeling(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int side = static_cast<int>(state.range(1));
  Deployment dep = make_scaled_deployment(n, DeployModel::kForbiddenAreas);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  TaskPool pool(4);
  Rng rng(7);
  std::vector<Vec2> moved = g.positions();
  for (Vec2& p : moved) {
    p.x = std::clamp(p.x + rng.uniform(-4.0, 4.0), dep.field.lo().x,
                     dep.field.hi().x);
    p.y = std::clamp(p.y + rng.uniform(-4.0, 4.0), dep.field.lo().y,
                     dep.field.hi().y);
  }
  std::size_t halo_demotions = 0;
  for (auto _ : state) {
    ShardedNetwork::Config config;
    config.tile_rows = side;
    config.tile_cols = side;
    ShardedNetwork sharded(g, /*edge_band=*/-1.0, config, &pool);
    benchmark::DoNotOptimize(sharded.safety().unsafe_node_count());
    sharded.apply_moves(moved);
    benchmark::DoNotOptimize(sharded.safety().unsafe_node_count());
    halo_demotions = sharded.last_stats().halo_demotions;
  }
  state.counters["halo_demotions"] = static_cast<double>(halo_demotions);
}
BENCHMARK(BM_ShardedLabeling)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({1000000, 4})
    ->Unit(benchmark::kMillisecond);

/// Building the quadrant CSR itself (the warmed-out cost above): the
/// once-per-epoch price of the flat kernel's substrate.
void BM_QuadrantZonesBuild(benchmark::State& state) {
  Deployment dep = make_scaled_deployment(static_cast<int>(state.range(0)),
                                          DeployModel::kForbiddenAreas);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  for (auto _ : state) {
    QuadrantZones zones = QuadrantZones::build(g);
    benchmark::DoNotOptimize(zones.size());
  }
}
BENCHMARK(BM_QuadrantZonesBuild)->Arg(10000)->Arg(100000);

/// One failure wave (1% of the nodes) on a warm 10^4-node labeling: full
/// recompute on the degraded graph (Arg 0) vs the incremental continuation
/// through update_safety_after_failures (Arg 1). The degraded graph and its
/// patched zones are prepared outside the loop; the incremental arm's
/// per-iteration SafetyInfo copy is part of the price it pays in real use.
void BM_IncrementalFailureWave(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  Deployment dep = make_scaled_deployment(10000, DeployModel::kForbiddenAreas);
  Network net(dep);
  net.force(Network::kNeedsSafety);
  Rng rng(5);
  std::vector<NodeId> casualties;
  for (int i = 0; i < 100; ++i) {
    NodeId u = static_cast<NodeId>(rng.next_below(net.graph().size()));
    if (net.graph().alive(u)) casualties.push_back(u);
  }
  Network degraded = net.with_failures(casualties);
  const SafetyInfo& base = net.safety();
  IncrementalStats last{};
  for (auto _ : state) {
    if (incremental) {
      SafetyInfo info = base;
      last = update_safety_after_failures(degraded.graph(),
                                          degraded.interest_area(), casualties,
                                          info);
      benchmark::DoNotOptimize(info.unsafe_node_count());
    } else {
      SafetyInfo info =
          compute_safety(degraded.graph(), degraded.interest_area());
      benchmark::DoNotOptimize(info.unsafe_node_count());
    }
  }
  if (incremental) {
    state.counters["seeds"] = static_cast<double>(last.seeds);
    state.counters["flips"] = static_cast<double>(last.flips);
  }
}
BENCHMARK(BM_IncrementalFailureWave)->Arg(0)->Arg(1);

void BM_DistributedSafety(benchmark::State& state) {
  Deployment dep = make_deployment(static_cast<int>(state.range(0)),
                                   DeployModel::kForbiddenAreas);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  InterestArea area(g, g.range());
  for (auto _ : state) {
    auto result = compute_safety_distributed(g, area);
    benchmark::DoNotOptimize(result.stats.broadcasts);
  }
}
BENCHMARK(BM_DistributedSafety)->Arg(400)->Arg(800);

/// One BOUNDHOLE build (TENT rule, bearing table, boundary walks) on an FA
/// network (`BM_BoundHole`) and an IA one (`BM_BoundHoleIdeal`), the two
/// models of the sweep's cells.
void boundhole_bench(benchmark::State& state, DeployModel model) {
  Deployment dep = make_deployment(static_cast<int>(state.range(0)), model);
  UnitDiskGraph g(dep.positions, dep.radio_range, dep.field);
  for (auto _ : state) {
    BoundHoleInfo info(g);
    benchmark::DoNotOptimize(info.stuck_count());
  }
}
void BM_BoundHole(benchmark::State& state) {
  boundhole_bench(state, DeployModel::kForbiddenAreas);
}
void BM_BoundHoleIdeal(benchmark::State& state) {
  boundhole_bench(state, DeployModel::kIdeal);
}
BENCHMARK(BM_BoundHole)->Arg(400)->Arg(800);
BENCHMARK(BM_BoundHoleIdeal)->Arg(800);

void route_scheme_bench(benchmark::State& state, Scheme scheme) {
  NetworkConfig config;
  config.deployment.node_count = 600;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 99;
  Network net = Network::create(config);
  auto router = net.make_router(scheme);
  Rng rng(7);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 64; ++i) {
    auto pair = net.random_connected_interior_pair(rng);
    if (pair.first != kInvalidNode) pairs.push_back(pair);
  }
  if (pairs.empty()) {
    state.SkipWithError("no connected interior pairs");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto [s, d] = pairs[i++ % pairs.size()];
    PathResult r = router->route(s, d);
    benchmark::DoNotOptimize(r.hops());
  }
}

void BM_RouteGf(benchmark::State& state) { route_scheme_bench(state, Scheme::kGf); }
void BM_RouteLgf(benchmark::State& state) { route_scheme_bench(state, Scheme::kLgf); }
void BM_RouteSlgf(benchmark::State& state) { route_scheme_bench(state, Scheme::kSlgf); }
void BM_RouteSlgf2(benchmark::State& state) { route_scheme_bench(state, Scheme::kSlgf2); }
BENCHMARK(BM_RouteGf);
BENCHMARK(BM_RouteLgf);
BENCHMARK(BM_RouteSlgf);
BENCHMARK(BM_RouteSlgf2);

void BM_ShortestPathOracle(benchmark::State& state) {
  NetworkConfig config;
  config.deployment.node_count = 600;
  config.seed = 99;
  Network net = Network::create(config);
  Rng rng(8);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (int i = 0; i < 64; ++i) {
    auto pair = net.random_connected_interior_pair(rng);
    if (pair.first != kInvalidNode) pairs.push_back(pair);
  }
  if (pairs.empty()) {
    state.SkipWithError("no connected interior pairs");
    return;
  }
  std::size_t i = 0;
  for (auto _ : state) {
    auto [s, d] = pairs[i++ % pairs.size()];
    auto sp = dijkstra_path(net.graph(), s, d);
    benchmark::DoNotOptimize(sp.length);
  }
}
BENCHMARK(BM_ShortestPathOracle);

/// The stretch oracle layer on its two consumers' inputs. Arg 600: one FA
/// sweep cell (network `sweep_cell_seed`, its 20 drawn pairs, hop and
/// length optima). Arg 10000: one stream epoch (the constant-degree 10^4
/// FA field, 256 connected interior pairs, hop optima only). Serial, so
/// the layer's own cost is timed.
void BM_OracleBatch(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::optional<Network> net;
  std::vector<std::pair<NodeId, NodeId>> pairs;
  OracleBatch::Metrics metrics = OracleBatch::Metrics::kBoth;
  if (n <= 1000) {
    SweepConfig config;
    config.model = DeployModel::kForbiddenAreas;
    NetworkConfig nc;
    nc.deployment = config.deployment_template;
    nc.deployment.model = config.model;
    nc.deployment.node_count = n;
    nc.seed = sweep_cell_seed(config, n, 0);
    net.emplace(Network::create(nc));
    pairs = sweep_cell_pairs(config, *net, n, 0);
  } else {
    net.emplace(make_scaled_deployment(n, DeployModel::kForbiddenAreas));
    metrics = OracleBatch::Metrics::kHopsOnly;
    Rng rng(256);
    for (int trial = 0; trial < 1024 && pairs.size() < 256; ++trial) {
      auto pair = net->random_connected_interior_pair(rng);
      if (pair.first != kInvalidNode) pairs.push_back(pair);
    }
  }
  if (pairs.empty()) {
    state.SkipWithError("no connected interior pairs");
    return;
  }
  for (auto _ : state) {
    OracleBatch batch(net->graph(), pairs, nullptr, metrics);
    benchmark::DoNotOptimize(batch.hop_optimal(batch.size() - 1).hops());
  }
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_OracleBatch)->Arg(600)->Arg(10000)->Unit(benchmark::kMillisecond);

/// Cost of the shard serialization round trip (report/serialize.h): one
/// sweep cell's full aggregates to JSON text, parsed back, deserialized.
/// This bounds the per-cell overhead the distributed sweep path adds on
/// top of the computation itself.
void BM_CellResultJsonRoundTrip(benchmark::State& state) {
  SweepConfig config;
  config.node_counts = {600};
  config.networks_per_point = 1;
  config.pairs_per_network = 20;
  config.threads = 1;
  config.schemes = SweepConfig::paper_schemes();
  CellResult cell = run_sweep_cell(config, 600, 0);
  for (auto _ : state) {
    JsonValue parsed;
    bool ok = JsonValue::parse(to_json(cell).dump(), parsed);
    CellResult decoded;
    ok = ok && from_json(parsed, decoded);
    if (!ok) {
      state.SkipWithError("round trip failed");
      return;
    }
    benchmark::DoNotOptimize(decoded.size());
  }
}
BENCHMARK(BM_CellResultJsonRoundTrip);

/// One whole sweep cell at 600 nodes: network build, pair draw (into the
/// worker-local arena), oracle batch and all four paper schemes routed.
void BM_SweepCell(benchmark::State& state) {
  SweepConfig config;
  config.node_counts = {600};
  config.networks_per_point = 1;
  config.pairs_per_network = 20;
  config.threads = 1;
  config.schemes = SweepConfig::paper_schemes();
  for (auto _ : state) {
    CellResult cell = run_sweep_cell(config, 600, 0);
    benchmark::DoNotOptimize(cell.size());
  }
}
BENCHMARK(BM_SweepCell);

/// One mobility re-pin epoch, full rebuild (Arg 0: fresh Network + forced
/// safety, the pre-with_moves path) vs incremental (Arg 1:
/// Network::with_moves — relocated grid, patched adjacency, bidirectional
/// safety continuation). Both process the same waypoint trajectory; the
/// delta is the ROADMAP's rebuild-vs-incremental re-pin datapoint.
void BM_MobilityRepin(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  NetworkConfig config;
  config.deployment.node_count = 600;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 42;
  Network net = Network::create(config);
  net.force(Network::kNeedsSafety);
  WaypointConfig wc;
  wc.field = net.deployment().field;
  wc.max_speed_mps = 1.5;
  WaypointModel model(net.deployment().positions, wc, Rng(42));
  for (auto _ : state) {
    model.advance(4.0);
    if (incremental) {
      net = net.with_moves(model.positions());
    } else {
      Deployment moved = net.deployment();
      moved.positions = model.positions();
      Network rebuilt(std::move(moved), net.edge_band());
      rebuilt.force(Network::kNeedsSafety);
      net = std::move(rebuilt);
    }
    benchmark::DoNotOptimize(net.safety().unsafe_node_count());
  }
}
BENCHMARK(BM_MobilityRepin)->Arg(0)->Arg(1);

/// The same rebuild-vs-incremental datapoint under *localized* motion (5%
/// of the nodes drift per epoch, everyone else holds still) — the regime
/// the incremental path targets: the grid relocation, adjacency patch and
/// touched-node safety scan all skip the unmoved majority.
void BM_LocalMotionRepin(benchmark::State& state) {
  const bool incremental = state.range(0) != 0;
  NetworkConfig config;
  config.deployment.node_count = 600;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 42;
  Network net = Network::create(config);
  net.force(Network::kNeedsSafety);
  Rng rng(7);
  for (auto _ : state) {
    std::vector<Vec2> moved = net.graph().positions();
    for (int k = 0; k < 30; ++k) {
      NodeId u = static_cast<NodeId>(rng.next_below(moved.size()));
      moved[u].x = std::clamp(moved[u].x + rng.uniform(-8.0, 8.0), 0.0, 200.0);
      moved[u].y = std::clamp(moved[u].y + rng.uniform(-8.0, 8.0), 0.0, 200.0);
    }
    if (incremental) {
      net = net.with_moves(moved);
    } else {
      Deployment d = net.deployment();
      d.positions = std::move(moved);
      Network rebuilt(std::move(d), net.edge_band());
      rebuilt.force(Network::kNeedsSafety);
      net = std::move(rebuilt);
    }
    benchmark::DoNotOptimize(net.safety().unsafe_node_count());
  }
}
BENCHMARK(BM_LocalMotionRepin)->Arg(0)->Arg(1);

/// One full streaming-delivery cell (sim/stream_sim.h): 4 schemes x 30
/// packets with two mid-stream failure waves — the unit of work the
/// streaming-delivery scenario fans out over its sweep pool.
void BM_StreamSimCell(benchmark::State& state) {
  NetworkConfig config;
  config.deployment.node_count = 500;
  config.deployment.model = DeployModel::kForbiddenAreas;
  config.seed = 17;
  for (auto _ : state) {
    Network net = Network::create(config);
    Rng rng(99);
    StreamConfig sc;
    sc.packets = 30;
    auto pair = net.random_connected_interior_pair(rng);
    if (pair.first == kInvalidNode) {
      state.SkipWithError("no connected interior pair");
      return;
    }
    sc.pairs.push_back(pair);
    StreamWave wave;
    wave.time = 5.0;
    for (NodeId u = 0; u < net.graph().size(); u += 23) {
      if (u != pair.first && u != pair.second) wave.casualties.push_back(u);
    }
    sc.waves.push_back(wave);
    StreamSim sim(std::move(net), sc);
    StreamStats stats = sim.run();
    benchmark::DoNotOptimize(stats.events);
  }
}
BENCHMARK(BM_StreamSimCell);

/// The stream engine's two stepping modes head to head at traffic scale:
/// `packets` injections at packet_interval 0 — every flight concurrent — of
/// one scheme (GF: no labeling cost, pure stepping + scheduling) over 16
/// far pairs of a constant-degree 10^4-node field. Both step the same SoA
/// flight records with pooled steppers; the per-hop reference mode pays
/// one heap event per flight-hop, the flight-record mode one tick event
/// per distinct hop instant, advancing each tick's batch (optionally in
/// parallel). Network construction is excluded from the timed region; the
/// `events` counter shows the heap-traffic collapse. The `Pairs` arms take
/// the pair count as a second argument. The pooled arms pin event parity
/// with the serial arms; they do not time pooled stepping. No barrier ever
/// invalidates the walk memo, so each pair's walk steps once, in the first
/// batch: 16 first walks sit under the pooled stepper's grain, and 256
/// step on the pool once. Every other injection replays from the memo on
/// the event-loop thread (at 10^6 flights and 256 pairs, 999,744 of
/// them).
enum class StreamEngineMode { kPerHop, kFlightRecord, kFlightRecordParallel };

void stream_engine_bench(benchmark::State& state, StreamEngineMode mode,
                         std::size_t pair_count = 16) {
  const int packets = static_cast<int>(state.range(0));
  Deployment dep = make_scaled_deployment(10000, DeployModel::kForbiddenAreas);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  {
    Network net(dep);
    Rng rng(321);
    for (std::size_t trial = 0;
         trial < 4 * pair_count && pairs.size() < pair_count; ++trial) {
      auto pair = net.random_connected_interior_pair(rng);
      if (pair.first != kInvalidNode) pairs.push_back(pair);
    }
  }
  if (pairs.empty()) {
    state.SkipWithError("no connected interior pairs");
    return;
  }
  std::size_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Network net(dep);
    // Materialize GF's lazy recovery structures outside the timed region:
    // the first local minimum would otherwise charge the planar overlay +
    // BOUNDHOLE build (seconds, identical for every engine) to whichever
    // engine ran, drowning the engine-cost ratio this bench exists to show.
    net.force(Network::kNeedsOverlay | Network::kNeedsBoundhole);
    state.ResumeTiming();
    StreamConfig sc;
    SchemeSpec gf;
    gf.scheme = Scheme::kGf;
    sc.schemes.push_back(std::move(gf));
    sc.pairs = pairs;
    sc.packets = packets;
    sc.packet_interval = 0.0;  // all flights in the air at once
    sc.hop_delay = 0.25;
    sc.engine = mode == StreamEngineMode::kPerHop ? StreamEngine::kPerHopEvents
                                                  : StreamEngine::kFlightRecord;
    sc.threads = mode == StreamEngineMode::kFlightRecordParallel ? 4 : 1;
    StreamSim sim(std::move(net), sc);
    StreamStats stats = sim.run();
    events = stats.events;
    benchmark::DoNotOptimize(stats.events);
  }
  state.counters["events"] = static_cast<double>(events);
}

void BM_StreamSimPerHop(benchmark::State& state) {
  stream_engine_bench(state, StreamEngineMode::kPerHop);
}
BENCHMARK(BM_StreamSimPerHop)->Arg(100000)->Unit(benchmark::kMillisecond);

void BM_StreamSimFlightRecord(benchmark::State& state) {
  stream_engine_bench(state, StreamEngineMode::kFlightRecord);
}
BENCHMARK(BM_StreamSimFlightRecord)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_StreamSimFlightRecordParallel(benchmark::State& state) {
  stream_engine_bench(state, StreamEngineMode::kFlightRecordParallel);
}
BENCHMARK(BM_StreamSimFlightRecordParallel)
    ->Arg(100000)
    ->Arg(1000000)
    ->Unit(benchmark::kMillisecond);

void BM_StreamSimFlightRecordPairs(benchmark::State& state) {
  stream_engine_bench(state, StreamEngineMode::kFlightRecord,
                      static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_StreamSimFlightRecordPairs)
    ->Args({1000000, 256})
    ->Unit(benchmark::kMillisecond);

void BM_StreamSimFlightRecordParallelPairs(benchmark::State& state) {
  stream_engine_bench(state, StreamEngineMode::kFlightRecordParallel,
                      static_cast<std::size_t>(state.range(1)));
}
BENCHMARK(BM_StreamSimFlightRecordParallelPairs)
    ->Args({1000000, 256})
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
