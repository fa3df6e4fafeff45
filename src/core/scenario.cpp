#include "core/scenario.h"
// spr-analyze-file: allow(determinism-taint) timing scenarios report
// wall-clock curves (seconds, speedup, hardware threads) by design; the
// determinism contract covers statuses/anchors/aggregates, which the
// bit_identical gates in this file verify on every run.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstring>
#include <cstdio>
#include <memory>
#include <optional>

#include "graph/graph_algos.h"
#include "mobility/waypoint.h"
#include "report/serialize.h"
#include "sim/stream_sim.h"
#include "routing/baselines.h"
#include "routing/slgf2.h"
#include "safety/distributed.h"
#include "safety/incremental.h"
#include "shard/sharded_network.h"
#include "stats/table.h"
#include "util/suggest.h"
#include "util/task_pool.h"

namespace spr {

namespace {

/// Display name of a deployment model: "IA (uniform)" / "FA (forbidden
/// areas)".
const char* model_name(DeployModel model) noexcept {
  return model == DeployModel::kIdeal ? "IA (uniform)" : "FA (forbidden areas)";
}

/// The paper sweep config with scenario-option overrides applied.
SweepConfig figure_config(DeployModel model, const ScenarioOptions& opts) {
  SweepConfig config;
  config.model = model;
  config.networks_per_point = opts.networks > 0 ? opts.networks : 100;
  config.pairs_per_network = opts.pairs > 0 ? opts.pairs : 20;
  config.base_seed = opts.seed != 0 ? opts.seed : 2009;
  config.threads = opts.threads;
  config.schemes = SweepConfig::paper_schemes();
  return config;
}

/// The per-scheme metric series of one sweep, as a plot curve.
ReportCurve metric_curve(std::string title, const std::string& y_label,
                         const SweepConfig& config,
                         const std::vector<SweepPoint>& points,
                         const MetricFn& metric) {
  ReportCurve curve;
  curve.title = std::move(title);
  curve.x_label = "nodes";
  curve.y_label = y_label;
  for (const auto& spec : config.schemes) {
    ReportSeries series;
    series.label = spec.display_label();
    for (const auto& point : points) {
      series.points.emplace_back(
          static_cast<double>(point.node_count),
          metric(point.by_scheme.at(spec.display_label())));
    }
    curve.series.push_back(std::move(series));
  }
  return curve;
}

/// One row per sweep point, one column per scheme: `metric` of each
/// (point, scheme) aggregate at `decimals` places — the table of every
/// figure, ablation metric and stretch panel.
Table metric_table(const SweepConfig& config,
                   const std::vector<SweepPoint>& points,
                   const MetricFn& metric, int decimals) {
  std::vector<std::string> header{"nodes"};
  for (const auto& spec : config.schemes)
    header.push_back(spec.display_label());
  Table table(std::move(header));
  for (const auto& point : points) {
    std::vector<std::string> row{std::to_string(point.node_count)};
    for (const auto& spec : config.schemes) {
      row.push_back(Table::fmt(
          metric(point.by_scheme.at(spec.display_label())), decimals));
    }
    table.add_row(std::move(row));
  }
  return table;
}

/// Shared driver for the fig5/6/7 scenarios: runs both deployment models,
/// records one table (and one plot curve) per panel and one sweep section
/// per model.
int run_figure(const ScenarioOptions& opts, const std::string& figure_title,
               const std::string& metric_label, const MetricFn& metric,
               int decimals, ScenarioReport& report) {
  for (DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    SweepConfig config = figure_config(model, opts);
    report.textf("%s — %s model, %d networks x %d pairs per point\n",
                 figure_title.c_str(), model_name(model),
                 config.networks_per_point, config.pairs_per_network);
    auto start = std::chrono::steady_clock::now();
    auto points = run_sweep(config);
    double wall = seconds_since(start);

    report.add_table(metric_table(config, points, metric, decimals),
                     deploy_model_tag(model));
    // Delivery context so failed routes are visible, not silently dropped.
    std::string delivery = "delivery ratio per scheme (worst point):";
    for (const auto& spec : config.schemes) {
      double worst = 1.0;
      for (const auto& point : points) {
        worst = std::min(
            worst, point.by_scheme.at(spec.display_label()).delivery_ratio());
      }
      char buf[96];
      std::snprintf(buf, sizeof(buf), "  %s>=%.2f",
                    spec.display_label().c_str(), worst);
      delivery += buf;
    }
    report.note(std::move(delivery));
    report.text("\n");

    report.curves.push_back(metric_curve(
        figure_title + " — " + model_name(model), metric_label, config,
        points, metric));
    report.add_sweep(config, std::move(points), wall);
  }
  return 0;
}

int run_ablation(const ScenarioOptions& opts, ScenarioReport& report) {
  report.textf("== SLGF2 ablation: contribution of each mechanism (FA model) "
               "==\n\n");
  std::vector<SchemeSpec> schemes = {
      {Scheme::kSlgf, {}, "SLGF"},
      {Scheme::kSlgf2, {}, "SLGF2"},
      {Scheme::kSlgf2, {.use_either_hand = false}, "-eitherhand"},
      {Scheme::kSlgf2, {.use_backup_paths = false}, "-backup"},
      {Scheme::kSlgf2, {.limit_perimeter = false}, "-limitperim"},
  };

  SweepConfig config = figure_config(DeployModel::kForbiddenAreas, opts);
  if (opts.networks == 0) config.networks_per_point = 40;
  config.schemes = schemes;
  config.node_counts = {400, 600, 800};

  auto start = std::chrono::steady_clock::now();
  auto points = run_sweep(config);
  double wall = seconds_since(start);

  struct Metric {
    const char* name;
    MetricFn fn;
  };
  const Metric metrics[] = {
      {"avg-hops", [](const RouteAggregate& a) { return a.hops.mean(); }},
      {"avg-length", [](const RouteAggregate& a) { return a.length.mean(); }},
      {"perimeter-hops",
       [](const RouteAggregate& a) { return a.perimeter_hops.mean(); }},
      {"delivery", [](const RouteAggregate& a) { return a.delivery_ratio(); }},
  };
  for (const Metric& metric : metrics) {
    report.textf("%s\n", metric.name);
    report.add_table(metric_table(config, points, metric.fn, 2), metric.name);
    report.textf("\n");
    report.curves.push_back(metric_curve(
        std::string("ablation — ") + metric.name, metric.name, config, points,
        metric.fn));
  }

  report.add_sweep(config, std::move(points), wall);
  return 0;
}

/// Delivery ratio of every implemented scheme — the paper's four, the
/// greedy-only baselines (MFR, Compass) and the flooding oracle — across
/// the density sweep. The figures average over delivered packets, so this
/// is the failure rate behind them.
int run_delivery(const ScenarioOptions& opts, ScenarioReport& report) {
  const int networks = opts.networks > 0 ? opts.networks : 30;
  const int pairs = opts.pairs > 0 ? opts.pairs : 15;
  const std::uint64_t base_seed = opts.seed != 0 ? opts.seed : 777000;
  const std::vector<int> node_counts = {400, 500, 600, 700, 800};
  const auto per_point = static_cast<std::size_t>(networks);
  static constexpr const char* kSchemes[] = {
      "GF", "LGF", "SLGF", "SLGF2", "MFR", "Compass", "Flooding"};
  struct Cell {
    std::size_t attempted = 0;
    std::array<std::size_t, std::size(kSchemes)> delivered{};
  };

  report.textf("== Delivery ratio per scheme (connected interior pairs) "
               "==\n\n");
  JsonValue by_model = JsonValue::object();
  for (DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    report.textf("%s model, %d networks x %d pairs per point\n",
                 model_name(model), networks, pairs);
    std::vector<Cell> cells(node_counts.size() * per_point);
    for_each_cell(opts.threads, cells.size(), [&](std::size_t ci) {
      const int n = node_counts[ci / per_point];
      NetworkConfig config;
      config.deployment.node_count = n;
      config.deployment.model = model;
      config.seed =
          base_seed + static_cast<std::uint64_t>(n) * 131 + ci % per_point;
      Network net = Network::create(config);
      std::unique_ptr<Router> routers[] = {
          net.make_router(Scheme::kGf), net.make_router(Scheme::kLgf),
          net.make_router(Scheme::kSlgf), net.make_router(Scheme::kSlgf2),
          std::make_unique<MfrRouter>(net.graph()),
          std::make_unique<CompassRouter>(net.graph()),
          std::make_unique<FloodingRouter>(net.graph())};
      Cell& cell = cells[ci];
      Rng rng(config.seed ^ 0xd00d);
      for (int p = 0; p < pairs; ++p) {
        const auto pair = net.random_connected_interior_pair(rng);
        if (pair.first == kInvalidNode) continue;
        ++cell.attempted;
        for (std::size_t r = 0; r < std::size(kSchemes); ++r) {
          if (routers[r]->route(pair.first, pair.second).delivered()) {
            ++cell.delivered[r];
          }
        }
      }
    });

    std::vector<std::string> header{"nodes"};
    header.insert(header.end(), std::begin(kSchemes), std::end(kSchemes));
    Table table(std::move(header));
    JsonValue points = JsonValue::array();
    for (std::size_t pi = 0; pi < node_counts.size(); ++pi) {
      Cell total;
      for (std::size_t i = 0; i < per_point; ++i) {
        const Cell& cell = cells[pi * per_point + i];
        total.attempted += cell.attempted;
        for (std::size_t r = 0; r < std::size(kSchemes); ++r) {
          total.delivered[r] += cell.delivered[r];
        }
      }
      std::vector<std::string> row{std::to_string(node_counts[pi])};
      JsonValue delivered = JsonValue::object();
      for (std::size_t r = 0; r < std::size(kSchemes); ++r) {
        row.push_back(Table::fmt(static_cast<double>(total.delivered[r]) /
                                     static_cast<double>(total.attempted),
                                 3));
        delivered.set(kSchemes[r], JsonValue::of(static_cast<std::uint64_t>(
                                       total.delivered[r])));
      }
      table.add_row(std::move(row));
      JsonValue point = JsonValue::object();
      point.set("nodes", JsonValue::of(node_counts[pi]));
      point.set("attempted",
                JsonValue::of(static_cast<std::uint64_t>(total.attempted)));
      point.set("delivered", std::move(delivered));
      points.push(std::move(point));
    }
    report.add_table(std::move(table), deploy_model_tag(model));
    report.text("\n");
    by_model.set(deploy_model_tag(model), std::move(points));
  }
  report.param("networks", JsonValue::of(networks));
  report.param("pairs", JsonValue::of(pairs));
  report.param("delivery", std::move(by_model));
  report.text("flooding = oracle (1.000 by construction on connected pairs);\n"
              "MFR/Compass are greedy-only and show the raw local-minimum\n"
              "rate that the recovery machinery must absorb.\n");
  return 0;
}

/// Path stretch: routed hops and meters over the BFS / Dijkstra optima per
/// scheme and density, over delivered packets — the quantitative form of
/// the paper's "straightforward path" claim.
int run_stretch(const ScenarioOptions& opts, ScenarioReport& report) {
  report.textf("== Path stretch vs optimal (delivered packets) ==\n\n");
  const MetricFn hop_stretch = [](const RouteAggregate& a) {
    return a.stretch_hops.mean();
  };
  const MetricFn length_stretch = [](const RouteAggregate& a) {
    return a.stretch_length.mean();
  };
  for (DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    SweepConfig config = figure_config(model, opts);
    if (opts.networks == 0) config.networks_per_point = 30;
    config.node_counts = {400, 500, 600, 700, 800};
    auto start = std::chrono::steady_clock::now();
    auto points = run_sweep(config);
    double wall = seconds_since(start);

    const std::string tag = deploy_model_tag(model);
    report.textf("%s model — hop stretch (routed hops / BFS-optimal hops)\n",
                 model_name(model));
    report.add_table(metric_table(config, points, hop_stretch, 3),
                     tag + " hop stretch");
    report.textf("%s model — length stretch (routed meters / "
                 "Dijkstra-optimal)\n",
                 model_name(model));
    report.add_table(metric_table(config, points, length_stretch, 3),
                     tag + " length stretch");
    report.text("\n");
    report.curves.push_back(metric_curve(tag + " hop stretch", "hop stretch",
                                         config, points, hop_stretch));
    report.curves.push_back(metric_curve(tag + " length stretch",
                                         "length stretch", config, points,
                                         length_stretch));
    report.add_sweep(config, std::move(points), wall);
  }
  return 0;
}

/// Construction cost of the safety information (paper Section 5: its cost
/// "has been proved to be the minimum"): the distributed protocol
/// (Algorithm 2) on the round engine — rounds to quiescence, broadcasts and
/// per-link receptions — against a naive re-flood in which every node
/// rebroadcasts its state each round until the labeling is stable.
int run_construction_cost(const ScenarioOptions& opts,
                          ScenarioReport& report) {
  const int networks = opts.networks > 0 ? opts.networks : 20;
  const std::uint64_t base_seed = opts.seed != 0 ? opts.seed : 900000;
  std::vector<int> node_counts;
  for (int n = 400; n <= 800; n += 50) node_counts.push_back(n);
  const auto per_point = static_cast<std::size_t>(networks);
  struct Cell {
    double rounds = 0.0;
    double broadcasts = 0.0;
    double receptions = 0.0;
    double naive_broadcasts = 0.0;
  };

  report.textf("== Construction cost of the safety information (Algorithm 2) "
               "==\n\n");
  JsonValue by_model = JsonValue::object();
  for (DeployModel model :
       {DeployModel::kIdeal, DeployModel::kForbiddenAreas}) {
    report.textf("%s model, %d networks per point\n", model_name(model),
                 networks);
    std::vector<Cell> cells(node_counts.size() * per_point);
    for_each_cell(opts.threads, cells.size(), [&](std::size_t ci) {
      const int n = node_counts[ci / per_point];
      NetworkConfig config;
      config.deployment.node_count = n;
      config.deployment.model = model;
      config.seed =
          base_seed + static_cast<std::uint64_t>(n) * 1000 + ci % per_point;
      Network net = Network::create(config);
      const auto result =
          compute_safety_distributed(net.graph(), net.interest_area());
      // The naive re-flood has every node broadcast in every round of the
      // same fixpoint run as synchronous passes. The protocol's statuses
      // evolve as those passes, and a tuple changes only in the round its
      // status flips (its anchors come from neighbors that flipped in an
      // earlier round, with final anchors), so its rounds are the hello
      // round plus one per pass, the final quiescent pass included.
      Cell& cell = cells[ci];
      cell.rounds = static_cast<double>(result.stats.rounds);
      cell.broadcasts = static_cast<double>(result.stats.broadcasts);
      cell.receptions = static_cast<double>(result.stats.receptions);
      cell.naive_broadcasts =
          static_cast<double>(net.graph().size() * result.stats.rounds);
    });

    Table table({"nodes", "rounds", "broadcasts", "bcast/node", "receptions",
                 "naive bcast", "saving"});
    JsonValue points = JsonValue::array();
    for (std::size_t pi = 0; pi < node_counts.size(); ++pi) {
      Summary rounds, broadcasts, receptions, naive_broadcasts;
      for (std::size_t i = 0; i < per_point; ++i) {
        const Cell& cell = cells[pi * per_point + i];
        rounds.add(cell.rounds);
        broadcasts.add(cell.broadcasts);
        receptions.add(cell.receptions);
        naive_broadcasts.add(cell.naive_broadcasts);
      }
      const int n = node_counts[pi];
      table.add_row({std::to_string(n), Table::fmt(rounds.mean(), 1),
                     Table::fmt(broadcasts.mean(), 0),
                     Table::fmt(broadcasts.mean() / n, 2),
                     Table::fmt(receptions.mean(), 0),
                     Table::fmt(naive_broadcasts.mean(), 0),
                     Table::fmt(naive_broadcasts.mean() /
                                    std::max(1.0, broadcasts.mean()),
                                2) +
                         "x"});
      JsonValue point = JsonValue::object();
      point.set("nodes", JsonValue::of(n));
      point.set("rounds", summary_stats(rounds));
      point.set("broadcasts", summary_stats(broadcasts));
      point.set("receptions", summary_stats(receptions));
      point.set("naive_broadcasts", summary_stats(naive_broadcasts));
      points.push(std::move(point));
    }
    report.add_table(std::move(table), deploy_model_tag(model));
    report.text("\n");
    by_model.set(deploy_model_tag(model), std::move(points));
  }
  report.param("networks", JsonValue::of(networks));
  report.param("cost", std::move(by_model));
  report.text("broadcasts stay near one per node: only nodes whose status or\n"
              "anchors change rebroadcast, matching the minimality claim.\n");
  return 0;
}

/// Hole-field study: the FA regime the safety model targets — how much of
/// the network is labeled unsafe and what that buys each scheme.
int run_hole_field(const ScenarioOptions& opts, ScenarioReport& report) {
  report.textf("== Hole field: unsafe labeling share and per-scheme delivery "
               "(FA model) ==\n\n");
  SweepConfig config = figure_config(DeployModel::kForbiddenAreas, opts);
  if (opts.networks == 0) config.networks_per_point = 20;
  config.node_counts = {500, 600, 700};

  auto start = std::chrono::steady_clock::now();
  auto points = run_sweep(config);
  double wall = seconds_since(start);

  // Unsafe-node share, sampled over this sweep's own networks (the sweep
  // itself never builds the labeling for GF/LGF — that's the point of the
  // lazy Network — so sample it here explicitly). These builds run on the
  // main thread, so the adjacency and labeling fan out within each network.
  TaskPool build_pool(opts.threads);
  Table table({"nodes", "unsafe%", "GF deliv", "LGF deliv", "SLGF deliv",
               "SLGF2 deliv", "SLGF2 perim"});
  std::vector<double> unsafe_shares;
  for (const auto& point : points) {
    double unsafe_sum = 0.0;
    int sampled = std::min(config.networks_per_point, 5);
    for (int i = 0; i < sampled; ++i) {
      NetworkConfig nc;
      nc.deployment = config.deployment_template;
      nc.deployment.model = config.model;
      nc.deployment.node_count = point.node_count;
      nc.seed = sweep_cell_seed(config, point.node_count, i);
      nc.build_pool = &build_pool;
      Network net = Network::create(nc);
      unsafe_sum += static_cast<double>(net.safety().unsafe_node_count()) /
                    static_cast<double>(net.graph().size());
    }
    double unsafe_share = unsafe_sum / sampled;
    unsafe_shares.push_back(unsafe_share);
    table.add_row(
        {std::to_string(point.node_count),
         Table::fmt(100.0 * unsafe_share, 1),
         Table::fmt(point.by_scheme.at("GF").delivery_ratio()),
         Table::fmt(point.by_scheme.at("LGF").delivery_ratio()),
         Table::fmt(point.by_scheme.at("SLGF").delivery_ratio()),
         Table::fmt(point.by_scheme.at("SLGF2").delivery_ratio()),
         Table::fmt(point.by_scheme.at("SLGF2").perimeter_hops.mean())});
  }
  report.add_table(std::move(table));

  JsonValue shares = JsonValue::array();
  for (double s : unsafe_shares) shares.push(JsonValue::of(s));
  report.param("unsafe_share", std::move(shares));

  ReportCurve unsafe_curve;
  unsafe_curve.title = "hole-field — unsafe node share";
  unsafe_curve.x_label = "nodes";
  unsafe_curve.y_label = "unsafe %";
  ReportSeries share_series;
  share_series.label = "unsafe%";
  for (std::size_t i = 0; i < points.size(); ++i) {
    share_series.points.emplace_back(
        static_cast<double>(points[i].node_count), 100.0 * unsafe_shares[i]);
  }
  unsafe_curve.series.push_back(std::move(share_series));
  report.curves.push_back(std::move(unsafe_curve));
  report.curves.push_back(metric_curve(
      "hole-field — delivery ratio", "delivery ratio", config, points,
      [](const RouteAggregate& a) { return a.delivery_ratio(); }));

  report.add_sweep(config, std::move(points), wall);
  return 0;
}

/// Failure dynamics: kill a disc of nodes between a routable pair, update
/// the labeling incrementally, and compare each scheme before/after.
int run_failure_dynamics(const ScenarioOptions& opts, ScenarioReport& report) {
  int trials = opts.networks > 0 ? opts.networks : 10;
  std::uint64_t base_seed = opts.seed != 0 ? opts.seed : 3;
  const int nodes = 700;
  const double blast = 35.0;
  report.textf("== Failure dynamics: %d trials, %d nodes, %.0fm blast ==\n\n",
               trials, nodes, blast);

  const Scheme schemes[] = {Scheme::kGf, Scheme::kLgf, Scheme::kSlgf,
                            Scheme::kSlgf2};
  std::size_t delivered_before[4] = {0}, delivered_after[4] = {0};
  Summary flips, incremental_reevals;
  int connected_trials = 0;

  // Single-network trials on the main thread: build-parallelize within
  // each network (adjacency + labeling init fan out; results identical).
  TaskPool build_pool(opts.threads);
  for (int trial = 0; trial < trials; ++trial) {
    NetworkConfig config;
    config.deployment.node_count = nodes;
    config.seed = base_seed + static_cast<std::uint64_t>(trial);
    config.build_pool = &build_pool;
    Network before = Network::create(config);
    // Labeled first, so the degraded copy continues it incrementally.
    before.force(Network::kNeedsSafety);

    Rng rng(config.seed ^ 0xdead);
    auto [s, d] = before.random_connected_interior_pair(rng);
    if (s == kInvalidNode) continue;
    Vec2 mid =
        midpoint(before.graph().position(s), before.graph().position(d));
    std::vector<NodeId> casualties;
    for (NodeId u = 0; u < before.graph().size(); ++u) {
      if (u == s || u == d) continue;
      if (distance(before.graph().position(u), mid) <= blast) {
        casualties.push_back(u);
      }
    }

    IncrementalStats inc_stats;
    Network after = before.with_failures(casualties, &inc_stats);
    if (!connected(after.graph(), s, d)) continue;
    ++connected_trials;
    flips.add(static_cast<double>(inc_stats.flips));
    incremental_reevals.add(static_cast<double>(inc_stats.reevaluations));

    for (int k = 0; k < 4; ++k) {
      if (before.make_router(schemes[k])->route(s, d).delivered()) {
        ++delivered_before[k];
      }
      if (after.make_router(schemes[k])->route(s, d).delivered()) {
        ++delivered_after[k];
      }
    }
  }

  Table table({"scheme", "delivered before", "delivered after"});
  for (int k = 0; k < 4; ++k) {
    table.add_row({scheme_name(schemes[k]),
                   std::to_string(delivered_before[k]) + "/" +
                       std::to_string(connected_trials),
                   std::to_string(delivered_after[k]) + "/" +
                       std::to_string(connected_trials)});
  }
  report.add_table(std::move(table));
  if (!flips.empty()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "incremental relabeling: %.1f flips, %.1f re-evaluations per "
                  "failure (mean over %zu trials)",
                  flips.mean(), incremental_reevals.mean(), flips.count());
    report.note(buf);
  }

  report.param("trials", JsonValue::of(trials));
  report.param("connected_trials", JsonValue::of(connected_trials));
  JsonValue scheme_results = JsonValue::array();
  for (int k = 0; k < 4; ++k) {
    JsonValue entry = JsonValue::object();
    entry.set("scheme", JsonValue::of(scheme_name(schemes[k])));
    entry.set("delivered_before",
              JsonValue::of(static_cast<std::uint64_t>(delivered_before[k])));
    entry.set("delivered_after",
              JsonValue::of(static_cast<std::uint64_t>(delivered_after[k])));
    scheme_results.push(std::move(entry));
  }
  report.param("schemes", std::move(scheme_results));
  report.param("relabel_flips", summary_stats(flips));
  return 0;
}

/// Mobile stream: a long-lived SLGF2 stream between fixed endpoints while
/// every other node follows a random-waypoint process.
int run_mobile_stream(const ScenarioOptions& opts, ScenarioReport& report) {
  int epochs = opts.networks > 0 ? opts.networks : 8;
  std::uint64_t seed = opts.seed != 0 ? opts.seed : 9;
  const double dt = 20.0;
  DeploymentConfig dc;
  dc.node_count = 600;
  report.textf("== Mobile stream: %d epochs, %d nodes, dt=%.0fs ==\n\n",
               epochs, dc.node_count, dt);

  Rng deploy_rng(seed);
  Deployment d = deploy(dc, deploy_rng);
  WaypointConfig wc;
  wc.field = dc.field;
  WaypointModel model(d.positions, wc, Rng(seed ^ 0x11));

  // Fixed endpoints: a far routable pair of the first snapshot.
  UnitDiskGraph g0(model.positions(), dc.radio_range, dc.field);
  InterestArea area0(g0, dc.radio_range);
  const auto& interior = area0.interior_nodes();
  if (interior.size() < 2) {
    report.textf("network too small for interior endpoints\n");
    report.aborted = true;
    return 1;
  }
  Rng pick_rng(seed ^ 0x22);
  NodeId src = kInvalidNode, dst = kInvalidNode;
  double best = -1.0;
  for (int trial = 0; trial < 64; ++trial) {
    NodeId a = interior[pick_rng.next_below(interior.size())];
    NodeId b = interior[pick_rng.next_below(interior.size())];
    if (a == b || !connected(g0, a, b)) continue;
    double dist = distance(g0.position(a), g0.position(b));
    if (dist > best) {
      best = dist;
      src = a;
      dst = b;
    }
  }
  if (src == kInvalidNode) {
    report.textf("no routable pair in the first snapshot\n");
    report.aborted = true;
    return 1;
  }

  Table table({"epoch", "time", "links", "delivered", "hops", "unsafe"});
  int delivered_epochs = 0;
  Summary hop_counts;
  TaskPool build_pool(opts.threads);  // per-epoch rebuilds fan out within
  for (int epoch = 0; epoch < epochs; ++epoch) {
    // Rebuild the snapshot; positions changed, so every derived structure
    // re-constitutes (the paper's argument for cheap construction).
    UnitDiskGraph g(model.positions(), dc.radio_range, dc.field, &build_pool);
    InterestArea area(g, dc.radio_range);
    SafetyInfo info = compute_safety(g, area, &build_pool);
    Slgf2Router router(g, info);
    PathResult r = router.route(src, dst);
    if (r.delivered()) {
      ++delivered_epochs;
      hop_counts.add(static_cast<double>(r.hops()));
    }
    table.add_row({std::to_string(epoch), Table::fmt(model.now(), 0),
                   std::to_string(g.edge_count()),
                   r.delivered() ? "yes" : "NO",
                   std::to_string(r.hops()),
                   std::to_string(info.unsafe_node_count())});
    model.advance(dt);
  }
  report.add_table(std::move(table));
  char buf[96];
  std::snprintf(buf, sizeof(buf), "delivered %d/%d epochs, mean hops %.1f",
                delivered_epochs, epochs,
                hop_counts.empty() ? 0.0 : hop_counts.mean());
  report.note(buf);

  report.param("epochs", JsonValue::of(epochs));
  report.param("delivered_epochs", JsonValue::of(delivered_epochs));
  report.param("hops", summary_stats(hop_counts));
  return 0;
}

/// The per-scheme values the stream tables and curves show; an empty
/// accumulator (no delivered copy) reads 0.
double stream_delivery(const StreamSchemeStats& s) {
  return s.delivery_ratio();
}
double stream_hops(const StreamSchemeStats& s) {
  return s.hops.empty() ? 0.0 : s.hops.mean();
}
double stream_stretch(const StreamSchemeStats& s) {
  return s.stretch_hops.empty() ? 0.0 : s.stretch_hops.mean();
}
using StreamMetric = double (*)(const StreamSchemeStats&);

/// The values of one scenario axis as a JSON array.
JsonValue number_array(const std::vector<double>& values) {
  JsonValue out = JsonValue::array();
  for (double v : values) out.push(JsonValue::of(v));
  return out;
}

/// One point of a stream grid: its cells' per-scheme totals and
/// incremental-relabeling counters, summed in cell order. A cell has
/// failure waves or waypoint re-pins, never both, so one sum serves both
/// kinds: `flips` counts the demotions of the waves or of the re-pins.
struct StreamPoint {
  std::vector<StreamSchemeStats> schemes;  ///< the paper's four, in order
  std::size_t casualties = 0;
  std::size_t repins = 0;
  std::size_t moved = 0;
  std::size_t edges_added = 0;
  std::size_t edges_removed = 0;
  std::size_t flips = 0;
  std::size_t promotions = 0;
  std::size_t reevaluations = 0;
  std::size_t arena_high_water = 0;  ///< max over the point's updates
};

/// The cell grid behind streaming-delivery and mobility-rate: `points` x
/// `networks` StreamSim runs, each on a fresh FA network with up to four
/// long-lived endpoint pairs, 1 s packets, 0.2 s hops and every
/// incremental relabeling checked against a from-scratch compute_safety.
/// A scenario brings its axes (as point indices), an events hook and its
/// texts; the grid runs the cells, reduces them per point in cell order
/// and builds the report pieces both scenarios share.
///
/// The report is a pure function of (options, seeds): no wall-clock or
/// thread-count values are recorded, so the JSON/CSV artifacts are
/// byte-identical across reruns and `--threads` (tests enforce this).
class StreamGrid {
 public:
  /// Adds a scenario's events (a failure schedule, waypoint motion) to the
  /// stream of a cell at `point`, after its endpoints were drawn from
  /// `rng`.
  using Events = std::function<void(std::size_t point, const Network& net,
                                    Rng& rng, StreamConfig& stream)>;

  StreamGrid(int nodes, int networks, int packets, std::uint64_t base_seed)
      : nodes_(nodes), networks_(networks), packets_(packets),
        base_seed_(base_seed) {}

  /// Runs `points` x `networks` cells on `threads` workers (cell ci is
  /// network ci % networks of point ci / networks, its endpoints drawn
  /// from Rng(seed ^ `salt`)) and reduces them per point. False, with the
  /// report aborted, when no cell had routable endpoints.
  bool run(int threads, std::size_t points, std::uint64_t salt,
           const Events& events, ScenarioReport& report) {
    const auto per_point = static_cast<std::size_t>(networks_);
    cells_.assign(points * per_point, std::nullopt);
    for_each_cell(threads, cells_.size(), [&](std::size_t ci) {
      NetworkConfig nc;
      nc.deployment.node_count = nodes_;
      nc.deployment.model = DeployModel::kForbiddenAreas;
      nc.seed = base_seed_ ^ ((ci + 1) * 0x9E3779B97F4A7C15ULL);
      Network net = Network::create(nc);

      Rng rng(nc.seed ^ salt);
      StreamConfig sc;
      sc.packets = packets_;
      sc.packet_interval = 1.0;
      sc.hop_delay = 0.2;
      sc.seed = nc.seed;
      sc.verify_relabeling = true;
      // A handful of long-lived source/sink pairs, cycled over the stream.
      for (int t = 0; t < 4; ++t) {
        auto pair = net.random_connected_interior_pair(rng);
        if (pair.first != kInvalidNode) sc.pairs.push_back(pair);
      }
      if (sc.pairs.empty()) return;  // the cell is skipped (counted below)
      events(ci / per_point, net, rng, sc);
      StreamSim sim(std::move(net), std::move(sc));
      cells_[ci] = sim.run();
    });

    // Per-point reduction in cell order — deterministic regardless of
    // which worker ran which cell.
    StreamPoint empty;
    for (const SchemeSpec& spec : SweepConfig::paper_schemes()) {
      empty.schemes.emplace_back().label = spec.display_label();
    }
    points_.assign(points, empty);
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
      if (!cells_[ci]) {
        ++skipped_;
        continue;
      }
      const StreamStats& stats = *cells_[ci];
      StreamPoint& point = points_[ci / per_point];
      for (std::size_t k = 0;
           k < stats.schemes.size() && k < point.schemes.size(); ++k) {
        point.schemes[k].merge(stats.schemes[k]);
      }
      point.repins += stats.repins;
      auto add_update = [&](const auto& record) {
        relabel_ok_ &= !record.verified || record.matches_full_recompute;
        point.flips += record.relabel.flips;
        point.promotions += record.relabel.promotions;
        point.reevaluations += record.relabel.reevaluations;
        point.arena_high_water =
            std::max(point.arena_high_water, record.relabel.arena_high_water);
      };
      for (const WaveRecord& record : stats.waves) {
        point.casualties += record.casualties;
        add_update(record);
      }
      for (const RepinRecord& record : stats.repin_records) {
        point.moved += record.moved;
        point.edges_added += record.edges_added;
        point.edges_removed += record.edges_removed;
        add_update(record);
      }
    }
    if (skipped_ == cells_.size()) {
      report.textf("no routable stream endpoints in any cell\n");
      report.aborted = true;
      return false;
    }
    return true;
  }

  const std::vector<StreamPoint>& points() const noexcept { return points_; }
  /// Whether every verified update in the cells that ran matched.
  bool relabel_ok() const noexcept { return relabel_ok_; }

  /// The table header: `lead`, one "<scheme> deliv" column per scheme,
  /// then `tail`.
  std::vector<std::string> columns(std::vector<std::string> lead,
                                   const std::vector<std::string>& tail) const {
    for (const SchemeSpec& spec : SweepConfig::paper_schemes()) {
      lead.push_back(spec.display_label() + " deliv");
    }
    lead.insert(lead.end(), tail.begin(), tail.end());
    return lead;
  }

  /// Point `p`'s table row: `lead`, its delivery ratio per scheme, then
  /// `tail`.
  std::vector<std::string> row(std::size_t p, std::vector<std::string> lead,
                               const std::vector<std::string>& tail) const {
    for (const StreamSchemeStats& s : points_[p].schemes) {
      lead.push_back(Table::fmt(s.delivery_ratio()));
    }
    lead.insert(lead.end(), tail.begin(), tail.end());
    return lead;
  }

  /// The notes under the table: whether the incremental `update` matched a
  /// from-scratch compute_safety at every `event`, the scenario's
  /// `axis_note`, and how many cells had no routable endpoints.
  void add_notes(ScenarioReport& report, const char* update,
                 const char* event, std::string axis_note) const {
    report.note(std::string("incremental ") + update +
                " matched a from-scratch compute_safety at every " + event +
                ": " + (relabel_ok_ ? "yes" : "NO"));
    report.note(std::move(axis_note));
    if (skipped_ > 0) {
      report.note(std::to_string(skipped_) + " of " +
                  std::to_string(cells_.size()) +
                  " stream cells had no routable endpoints and were skipped");
    }
  }

  /// Adds a per-scheme curve of `metric` over the points from `first` on,
  /// one per x in `xs`.
  void add_curve(ScenarioReport& report, std::string title,
                 std::string x_label, std::string y_label, std::size_t first,
                 const std::vector<double>& xs, StreamMetric metric) const {
    ReportCurve curve{std::move(title), std::move(x_label),
                      std::move(y_label), {}};
    for (std::size_t k = 0; k < points_[first].schemes.size(); ++k) {
      ReportSeries& series = curve.series.emplace_back();
      series.label = points_[first].schemes[k].label;
      for (std::size_t i = 0; i < xs.size(); ++i) {
        series.points.emplace_back(xs[i],
                                   metric(points_[first + i].schemes[k]));
      }
    }
    report.curves.push_back(std::move(curve));
  }

  /// Adds a sweep section (the JSON "models" shape) over the points from
  /// `first` on, one per x in `xs`, keyed by int(scale·x + 0.5) in place of
  /// a node count (the scenario's sweep_section_x_axis param says so).
  /// `threads` and `wall_seconds` stay 0, so the report is the same across
  /// reruns and thread counts.
  void add_section(ScenarioReport& report, std::size_t first,
                   const std::vector<double>& xs, double scale) const {
    SweepSection& section = report.sweeps.emplace_back();
    section.model = DeployModel::kForbiddenAreas;
    section.networks_per_point = networks_;
    section.pairs_per_network = packets_;
    section.base_seed = base_seed_;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      SweepPoint& point = section.points.emplace_back();
      point.node_count = static_cast<int>(scale * xs[i] + 0.5);
      // Every injected copy counts as requested and attempted.
      for (const StreamSchemeStats& s : points_[first + i].schemes) {
        RouteAggregate& agg = point.by_scheme[s.label];
        agg.requested = agg.attempted = s.injected;
        agg.delivered = s.delivered;
        agg.hops = s.hops;
        agg.length = s.length;
        agg.stretch_hops = s.stretch_hops;
      }
    }
  }

  /// `member` of every point, in point order.
  JsonValue counters(std::size_t StreamPoint::*member) const {
    JsonValue out = JsonValue::array();
    for (const StreamPoint& point : points_) {
      out.push(JsonValue::of(static_cast<std::uint64_t>(point.*member)));
    }
    return out;
  }

  /// Every cell that ran, in cell order: the coordinates of its point (set
  /// by `coordinates`), its network index and its full stream stats
  /// through the typed serializer (report/serialize.h).
  JsonValue streams(
      const std::function<void(std::size_t, JsonValue&)>& coordinates) const {
    const auto per_point = static_cast<std::size_t>(networks_);
    JsonValue out = JsonValue::array();
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
      if (!cells_[ci]) continue;
      JsonValue entry = JsonValue::object();
      coordinates(ci / per_point, entry);
      entry.set("net", JsonValue::of(static_cast<int>(ci % per_point)));
      entry.set("stats", stream_stats_json(*cells_[ci]));
      out.push(std::move(entry));
    }
    return out;
  }

 private:
  int nodes_, networks_, packets_;
  std::uint64_t base_seed_;
  std::vector<std::optional<StreamStats>> cells_;  ///< empty: skipped
  std::vector<StreamPoint> points_;
  std::size_t skipped_ = 0;
  bool relabel_ok_ = true;
};

/// Streaming delivery: long-lived packet streams over StreamSim with
/// failure waves landing *between the hops* of in-flight packets. Sweeps
/// the failure fraction (share of nodes that die over the stream's
/// lifetime); SLGF/SLGF2 keep routing on incrementally relabeled safety
/// information after every wave, and each wave's incremental update is
/// cross-checked against a from-scratch compute_safety.
int run_streaming_delivery(const ScenarioOptions& opts,
                           ScenarioReport& report) {
  const int networks = opts.networks > 0 ? opts.networks : 3;
  const int packets = opts.pairs > 0 ? opts.pairs : 40;
  const std::uint64_t base_seed = opts.seed != 0 ? opts.seed : 2009;
  const int nodes = 600;
  const std::vector<double> fractions = {0.0, 0.05, 0.10, 0.20, 0.30};
  const int waves_per_stream = 4;

  report.textf("== Streaming delivery: %d-node FA networks, %d streams x %d "
               "packets per failure fraction, %d mid-stream failure waves "
               "==\n\n",
               nodes, networks, packets, waves_per_stream);

  // The failure schedule: `fraction` of the nodes dies across
  // `waves_per_stream` waves spread over the stream's injection span,
  // never touching the stream endpoints.
  const auto schedule = [&](std::size_t fi, const Network& net, Rng& rng,
                            StreamConfig& stream) {
    stream.waves = spread_failure_waves(
        net.graph(), stream.pairs, fractions[fi], waves_per_stream,
        static_cast<double>(stream.packets) * stream.packet_interval, rng);
  };
  StreamGrid grid(nodes, networks, packets, base_seed);
  if (!grid.run(opts.threads, fractions.size(), 0x57bea, schedule, report)) {
    return 1;
  }

  // Console table: one row per failure percentage.
  std::vector<double> percents;
  for (double f : fractions) percents.push_back(100.0 * f);
  Table table(grid.columns({"fail%"}, {"SLGF2 hops", "SLGF2 stretch",
                                        "relabel flips"}));
  for (std::size_t fi = 0; fi < fractions.size(); ++fi) {
    const StreamPoint& point = grid.points()[fi];
    const StreamSchemeStats& slgf2 = point.schemes.back();
    table.add_row(grid.row(fi, {Table::fmt(percents[fi], 0)},
                           {Table::fmt(stream_hops(slgf2)),
                            Table::fmt(stream_stretch(slgf2)),
                            std::to_string(point.flips)}));
  }
  report.add_table(std::move(table));
  grid.add_notes(report, "relabeling", "wave",
                 "sweep section x axis is the failure percentage (every "
                 "network has " + std::to_string(nodes) + " nodes)");

  // Plot curves: per-scheme series over the failure percentage; the sweep
  // section keys its points by that percentage.
  grid.add_curve(report, "streaming-delivery — delivery ratio", "failed %",
                 "delivery ratio", 0, percents, stream_delivery);
  grid.add_curve(report, "streaming-delivery — avg hops (delivered)",
                 "failed %", "hops", 0, percents, stream_hops);
  grid.add_curve(report,
                 "streaming-delivery — hop stretch vs injection-time optimum",
                 "failed %", "stretch", 0, percents, stream_stretch);
  grid.add_section(report, 0, fractions, 100.0);

  // Machine-readable params: config identity, per-fraction relabeling cost
  // (summed over waves and streams, aligned with failure_fractions) and
  // every cell's stream stats.
  report.param("nodes", JsonValue::of(nodes));
  report.param("networks_per_fraction", JsonValue::of(networks));
  report.param("packets_per_stream", JsonValue::of(packets));
  report.param("waves_per_stream", JsonValue::of(waves_per_stream));
  report.param("base_seed", JsonValue::of(base_seed));
  report.param("sweep_section_x_axis", JsonValue::of("failure_percent"));
  report.param("relabel_matches_full_recompute",
               JsonValue::of(grid.relabel_ok()));
  report.param("failure_fractions", number_array(fractions));
  report.param("wave_casualties", grid.counters(&StreamPoint::casualties));
  report.param("relabel_flips", grid.counters(&StreamPoint::flips));
  report.param("relabel_reevaluations",
               grid.counters(&StreamPoint::reevaluations));
  report.param("streams",
               grid.streams([&](std::size_t fi, JsonValue& entry) {
                 entry.set("fraction", JsonValue::of(fractions[fi]));
               }));
  return grid.relabel_ok() ? 0 : 1;
}

/// Mobility rate: long-lived packet streams while every node follows a
/// random-waypoint process, sweeping the re-pin interval x the maximum
/// node speed. Every re-pin *continues* the snapshot incrementally
/// (Network::with_moves: relocated spatial grid, adjacency patched from
/// the edge delta, bidirectional safety update — removals demote,
/// additions promote) and is cross-checked against a from-scratch
/// compute_safety (StreamConfig::verify_relabeling).
int run_mobility_rate(const ScenarioOptions& opts, ScenarioReport& report) {
  const int networks = opts.networks > 0 ? opts.networks : 2;
  const int packets = opts.pairs > 0 ? opts.pairs : 30;
  const std::uint64_t base_seed = opts.seed != 0 ? opts.seed : 2009;
  const int nodes = 500;
  const std::vector<double> intervals = {4.0, 8.0};  // re-pin period, s
  const std::vector<double> speeds = {0.5, 1.5, 3.0};  // max m/s

  report.textf("== Mobility rate: %d-node FA networks, %d streams x %d "
               "packets per cell, re-pin interval x speed sweep with "
               "incremental relabeling ==\n\n",
               nodes, networks, packets);

  // Point gi is (intervals[gi / speeds.size()], speeds[gi % speeds.size()]).
  const auto motion = [&](std::size_t gi, const Network&, Rng&,
                          StreamConfig& stream) {
    const double interval = intervals[gi / speeds.size()];
    const double speed = speeds[gi % speeds.size()];
    stream.mobility_interval = interval;
    stream.mobility_dt = interval;  // virtual and waypoint time advance in step
    stream.waypoint.max_speed_mps = speed;
    stream.waypoint.min_speed_mps = speed * 0.25;
    stream.waypoint.pause_s = 2.0;
  };
  StreamGrid grid(nodes, networks, packets, base_seed);
  if (!grid.run(opts.threads, intervals.size() * speeds.size(), 0x30b1,
                motion, report)) {
    return 1;
  }

  // Console table: one row per (interval, speed) grid point.
  Table table(grid.columns({"repin s", "speed m/s"},
                           {"SLGF2 stretch", "repins", "promoted", "demoted"}));
  for (std::size_t gi = 0; gi < grid.points().size(); ++gi) {
    const StreamPoint& point = grid.points()[gi];
    table.add_row(grid.row(gi,
                           {Table::fmt(intervals[gi / speeds.size()], 0),
                            Table::fmt(speeds[gi % speeds.size()], 1)},
                           {Table::fmt(stream_stretch(point.schemes.back())),
                            std::to_string(point.repins),
                            std::to_string(point.promotions),
                            std::to_string(point.flips)}));
  }
  report.add_table(std::move(table));
  grid.add_notes(report, "with_moves relabeling", "re-pin",
                 "sweep section x axis is the max waypoint speed in 0.1 m/s "
                 "units (every network has " + std::to_string(nodes) +
                     " nodes); one section per re-pin interval, in interval "
                     "order");

  // Plot curves: per-scheme series over speed, one curve per interval; and
  // one sweep section per interval, keyed by the speed in 0.1 m/s units.
  const auto speed_curves = [&](const char* what, const char* y_label,
                                StreamMetric metric) {
    for (std::size_t ii = 0; ii < intervals.size(); ++ii) {
      char title[120];
      std::snprintf(title, sizeof(title), "mobility-rate — %s (repin %.0fs)",
                    what, intervals[ii]);
      grid.add_curve(report, title, "max speed (m/s)", y_label,
                     ii * speeds.size(), speeds, metric);
    }
  };
  speed_curves("delivery ratio", "delivery ratio", stream_delivery);
  speed_curves("hop stretch vs injection-time optimum", "stretch",
               stream_stretch);
  for (std::size_t ii = 0; ii < intervals.size(); ++ii) {
    grid.add_section(report, ii * speeds.size(), speeds, 10.0);
  }

  // Machine-readable params: config identity, per-grid-point relabeling
  // cost and every cell's stream stats.
  report.param("nodes", JsonValue::of(nodes));
  report.param("networks_per_cell", JsonValue::of(networks));
  report.param("packets_per_stream", JsonValue::of(packets));
  report.param("base_seed", JsonValue::of(base_seed));
  report.param("sweep_section_x_axis", JsonValue::of("max_speed_mps_x10"));
  report.param("relabel_matches_full_recompute",
               JsonValue::of(grid.relabel_ok()));
  report.param("repin_intervals", number_array(intervals));
  report.param("max_speeds", number_array(speeds));
  report.param("repins", grid.counters(&StreamPoint::repins));
  report.param("moved_nodes", grid.counters(&StreamPoint::moved));
  report.param("edges_added", grid.counters(&StreamPoint::edges_added));
  report.param("edges_removed", grid.counters(&StreamPoint::edges_removed));
  report.param("relabel_promotions", grid.counters(&StreamPoint::promotions));
  report.param("relabel_demotions", grid.counters(&StreamPoint::flips));
  report.param("relabel_reevaluations",
               grid.counters(&StreamPoint::reevaluations));
  // Per-update peak (max-aggregated, so the value is thread-invariant):
  // the retained-block size after which re-pin relabeling stops touching
  // the general heap.
  report.param("relabel_arena_high_water",
               grid.counters(&StreamPoint::arena_high_water));
  report.param("streams",
               grid.streams([&](std::size_t gi, JsonValue& entry) {
                 entry.set("repin_interval",
                           JsonValue::of(intervals[gi / speeds.size()]));
                 entry.set("max_speed",
                           JsonValue::of(speeds[gi % speeds.size()]));
               }));
  return grid.relabel_ok() ? 0 : 1;
}

/// Spatial-tile scaling: one scaled constant-degree FA deployment labeled
/// through every tile grid x thread count, with a failure wave and a
/// mobility epoch continued incrementally on each — asserting the tile
/// layer's invariance contract (every grid bit-identical to the 1x1 run,
/// and the 1x1 run to the monolithic compute_safety) and reporting the
/// tiles x threads timing curve. `--networks K` scales the field to
/// K*1000 nodes (default 10, i.e. 10^4). The million-node datapoint,
/// `--networks 1000`, is the largest field (`kMaxDeployNodes`), so a larger
/// count is rejected with exit 2 before anything is deployed.
int run_tile_scaling(const ScenarioOptions& opts, ScenarioReport& report) {
  const std::int64_t requested =
      std::int64_t{opts.networks > 0 ? opts.networks : 10} * 1000;
  if (requested > kMaxDeployNodes) {
    report.textf("tile-scaling: %lld nodes is more than a field holds (at "
                 "most %lld, --networks %lld)\n",
                 static_cast<long long>(requested),
                 static_cast<long long>(kMaxDeployNodes),
                 static_cast<long long>(kMaxDeployNodes / 1000));
    report.aborted = true;
    return 2;
  }
  const int nodes = static_cast<int>(requested);
  const std::uint64_t seed = opts.seed != 0 ? opts.seed : 2009;
  const int hardware = TaskPool::hardware_threads();
  const int parallel_threads = opts.threads > 1 ? opts.threads : hardware;

  // Constant mean degree across sizes: field side grows with sqrt(n/600),
  // forbidden areas scale with the field (bench_micro's scaling rule).
  DeploymentConfig dc;
  dc.node_count = nodes;
  dc.model = DeployModel::kForbiddenAreas;
  const double scale = std::sqrt(static_cast<double>(nodes) / 600.0);
  if (scale > 1.0) {
    dc.field = Rect::from_bounds({0.0, 0.0}, {200.0 * scale, 200.0 * scale});
    dc.min_forbidden_extent *= scale;
    dc.max_forbidden_extent *= scale;
    dc.forbidden_margin *= scale;
  }
  Rng rng(seed);
  Deployment dep = deploy(dc, rng);
  TaskPool pool(parallel_threads);

  auto start = std::chrono::steady_clock::now();
  UnitDiskGraph global(std::move(dep.positions), dep.radio_range, dep.field,
                       &pool);
  const double graph_seconds = seconds_since(start);
  report.textf("== Tile scaling: %d nodes (FA, %.0fm field), %d hardware "
               "threads ==\n\n",
               nodes, dep.field.width(), hardware);
  report.textf("global unit-disk graph: %.2fs (%zu links)\n", graph_seconds,
               global.edge_count());

  // One failure wave (0.5% of the nodes) and one mobility epoch (every
  // node jitters by up to 4 m a side, and those near a tile border change
  // owner), fixed up front so every grid sees the identical sequence.
  Rng wave_rng(seed ^ 0x7713);
  std::vector<NodeId> casualties;
  const std::size_t wave_size =
      std::max<std::size_t>(1, static_cast<std::size_t>(nodes) / 200);
  while (casualties.size() < wave_size) {
    NodeId u = static_cast<NodeId>(wave_rng.next_below(global.size()));
    if (std::find(casualties.begin(), casualties.end(), u) ==
        casualties.end()) {
      casualties.push_back(u);
    }
  }
  std::vector<Vec2> moved = global.positions();
  for (Vec2& p : moved) {
    p.x = std::clamp(p.x + wave_rng.uniform(-4.0, 4.0), dep.field.lo().x,
                     dep.field.hi().x);
    p.y = std::clamp(p.y + wave_rng.uniform(-4.0, 4.0), dep.field.lo().y,
                     dep.field.hi().y);
  }

  struct GridRun {
    int side = 0;
    int threads = 0;
    double build_seconds = 0.0;
    double label_seconds = 0.0;
    double failure_seconds = 0.0;
    double move_seconds = 0.0;
    ShardStats stats;
  };
  const int sides[] = {1, 2, 4};
  const int thread_counts[] = {1, parallel_threads};
  std::vector<GridRun> runs;
  // Per-stage reference labelings from the 1x1 serial run (the first).
  SafetyInfo ref_label, ref_failed, ref_moved;
  bool identical = true;

  for (int threads : thread_counts) {
    TaskPool run_pool(threads);
    for (int side : sides) {
      GridRun run;
      run.side = side;
      run.threads = threads;
      ShardedNetwork::Config config;
      config.tile_rows = side;
      config.tile_cols = side;
      start = std::chrono::steady_clock::now();
      ShardedNetwork sharded(global, /*edge_band=*/-1.0, config,
                             threads > 1 ? &run_pool : nullptr);
      run.build_seconds = seconds_since(start);
      start = std::chrono::steady_clock::now();
      const SafetyInfo& labeled = sharded.safety();
      run.label_seconds = seconds_since(start);
      if (runs.empty()) {
        ref_label = labeled;
      } else {
        identical &= labeled == ref_label;
      }
      start = std::chrono::steady_clock::now();
      sharded.apply_failures(casualties);
      run.failure_seconds = seconds_since(start);
      if (runs.empty()) {
        ref_failed = sharded.safety();
      } else {
        identical &= sharded.safety() == ref_failed;
      }
      start = std::chrono::steady_clock::now();
      sharded.apply_moves(moved);
      run.move_seconds = seconds_since(start);
      run.stats = sharded.last_stats();
      if (runs.empty()) {
        ref_moved = sharded.safety();
      } else {
        identical &= sharded.safety() == ref_moved;
      }
      runs.push_back(run);
    }
  }

  // Belt and braces under the 1x1-reference scheme: the initial labeling
  // must also equal the monolithic kernel's.
  {
    InterestArea area(global, global.range());
    identical &= ref_label == compute_safety(global, area, &pool);
  }

  Table table({"tiles", "threads", "build s", "label s", "failure s",
               "move s", "halo demotions", "exch rounds"});
  for (const GridRun& run : runs) {
    table.add_row({std::to_string(run.side) + "x" + std::to_string(run.side),
                   std::to_string(run.threads),
                   Table::fmt(run.build_seconds),
                   Table::fmt(run.label_seconds),
                   Table::fmt(run.failure_seconds),
                   Table::fmt(run.move_seconds),
                   std::to_string(run.stats.halo_demotions),
                   std::to_string(run.stats.exchange_rounds)});
  }
  report.add_table(std::move(table));
  report.textf("\nall grids and thread counts bit-identical (statuses and "
               "anchors, after labeling, failure wave and mobility epoch): "
               "%s\n",
               identical ? "yes" : "NO");

  for (const char* metric : {"label", "move"}) {
    ReportCurve curve;
    curve.title = std::string("tile scaling — ") + metric + " seconds";
    curve.x_label = "tiles";
    curve.y_label = "seconds";
    for (int threads : thread_counts) {
      ReportSeries series;
      series.label = std::to_string(threads) + " thread(s)";
      for (const GridRun& run : runs) {
        if (run.threads != threads) continue;
        series.points.emplace_back(
            static_cast<double>(run.side * run.side),
            std::strcmp(metric, "label") == 0 ? run.label_seconds
                                              : run.move_seconds);
      }
      curve.series.push_back(std::move(series));
    }
    report.curves.push_back(std::move(curve));
  }

  report.param("nodes", JsonValue::of(nodes));
  report.param("base_seed", JsonValue::of(seed));
  report.param("hardware_threads", JsonValue::of(hardware));
  report.param("parallel_threads", JsonValue::of(parallel_threads));
  report.param("graph_seconds", JsonValue::of(graph_seconds));
  report.param("wave_size", JsonValue::of(
                   static_cast<std::uint64_t>(casualties.size())));
  report.param("bit_identical", JsonValue::of(identical));
  JsonValue runs_json = JsonValue::array();
  for (const GridRun& run : runs) {
    JsonValue entry = JsonValue::object();
    entry.set("tiles", JsonValue::of(run.side * run.side));
    entry.set("threads", JsonValue::of(run.threads));
    entry.set("build_seconds", JsonValue::of(run.build_seconds));
    entry.set("label_seconds", JsonValue::of(run.label_seconds));
    entry.set("failure_seconds", JsonValue::of(run.failure_seconds));
    entry.set("move_seconds", JsonValue::of(run.move_seconds));
    entry.set("halo_demotions", JsonValue::of(
                  static_cast<std::uint64_t>(run.stats.halo_demotions)));
    entry.set("exchange_rounds", JsonValue::of(
                  static_cast<std::uint64_t>(run.stats.exchange_rounds)));
    runs_json.push(std::move(entry));
  }
  report.param("runs", std::move(runs_json));
  return identical ? 0 : 1;
}

/// Parallel-sweep scaling: the same sweep serial and parallel, verifying
/// bit-identical aggregates and reporting the wall-clock ratio plus the
/// construction / oracle / routing breakdown and the oracle's search count.
int run_sweep_scaling(const ScenarioOptions& opts, ScenarioReport& report) {
  SweepConfig config = figure_config(DeployModel::kIdeal, opts);
  if (opts.networks == 0) config.networks_per_point = 8;
  if (opts.pairs == 0) config.pairs_per_network = 6;
  config.node_counts = {400, 600, 800};
  int hardware = TaskPool::hardware_threads();
  int parallel_threads = opts.threads > 1 ? opts.threads : hardware;
  report.textf("== Sweep scaling: %zu points x %d networks x %d pairs, "
               "%d hardware threads ==\n\n",
               config.node_counts.size(), config.networks_per_point,
               config.pairs_per_network, hardware);

  config.threads = 1;
  auto start = std::chrono::steady_clock::now();
  SweepTimings serial_timings;
  auto serial = run_sweep(config, {}, &serial_timings);
  double serial_seconds = seconds_since(start);

  config.threads = parallel_threads;
  start = std::chrono::steady_clock::now();
  SweepTimings parallel_timings;
  auto parallel = run_sweep(config, {}, &parallel_timings);
  double parallel_seconds = seconds_since(start);

  bool identical = serial == parallel;
  double speedup =
      parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0;
  report.textf("serial (threads=1):   %.2fs\n", serial_seconds);
  report.textf("parallel (threads=%d): %.2fs\n", parallel_threads,
               parallel_seconds);
  report.textf("speedup: %.2fx, aggregates bit-identical: %s\n", speedup,
               identical ? "yes" : "NO");
  // Cost breakdown (serial run: the parallel one sums worker wall-clocks).
  report.textf("serial breakdown: construction %.2fs, pair draw %.2fs, "
               "oracle %.2fs, routing %.2fs\n",
               serial_timings.construction_seconds,
               serial_timings.pair_draw_seconds,
               serial_timings.oracle_seconds, serial_timings.routing_seconds);
  report.textf("oracle searches: %llu for %llu pairs — one bidirectional "
               "BFS + one A* per pair\n",
               static_cast<unsigned long long>(
                   serial_timings.bfs_searches +
                   serial_timings.dijkstra_searches),
               static_cast<unsigned long long>(serial_timings.pairs_routed));
  if (serial_timings.pairs_routed < serial_timings.pairs_requested) {
    report.textf("pair shortfall: %llu of %llu requested pairs not drawn\n",
                 static_cast<unsigned long long>(
                     serial_timings.pairs_requested -
                     serial_timings.pairs_routed),
                 static_cast<unsigned long long>(
                     serial_timings.pairs_requested));
  }

  report.param("hardware_threads", JsonValue::of(hardware));
  report.param("parallel_threads", JsonValue::of(parallel_threads));
  report.param("serial_seconds", JsonValue::of(serial_seconds));
  report.param("parallel_seconds", JsonValue::of(parallel_seconds));
  report.param("speedup", JsonValue::of(speedup));
  report.param("bit_identical", JsonValue::of(identical));
  report.param("serial_timings", to_json(serial_timings));
  report.param("parallel_timings", to_json(parallel_timings));
  report.add_sweep(config, std::move(parallel), parallel_seconds);
  return identical ? 0 : 1;
}

}  // namespace

std::string negative_count_error(int networks, int pairs, int threads) {
  const std::pair<const char*, int> counts[] = {
      {"networks", networks}, {"pairs", pairs}, {"threads", threads}};
  for (const auto& [name, value] : counts) {
    if (value < 0) {
      return std::string(name) + " must be >= 0, got " + std::to_string(value);
    }
  }
  return {};
}

void ScenarioSuite::add(Scenario scenario) {
  scenarios_.push_back(std::move(scenario));
}

const Scenario* ScenarioSuite::find(std::string_view name) const noexcept {
  for (const auto& s : scenarios_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::vector<std::string> ScenarioSuite::suggestions(
    std::string_view name) const {
  std::vector<std::string> names;
  names.reserve(scenarios_.size());
  for (const auto& s : scenarios_) names.push_back(s.name);
  return near_matches(name, names);
}

namespace {

/// The sinks `options` selects, with per-scenario default paths for
/// formats requested without an explicit one.
std::vector<std::unique_ptr<ReportSink>> make_sinks(
    const ScenarioOptions& options, const std::string& scenario_name,
    std::string* error) {
  std::vector<ReportFormat> formats;
  if (!parse_report_formats(options.formats, formats, error)) return {};
  auto enabled = [&](ReportFormat f) {
    return std::find(formats.begin(), formats.end(), f) != formats.end();
  };
  // An empty list means console; an explicit output path enables its sink
  // either way (--json, --csv and --svg predate --format and keep working).
  if (formats.empty()) formats.push_back(ReportFormat::kConsole);
  if (!options.json_path.empty() && !enabled(ReportFormat::kJson)) {
    formats.push_back(ReportFormat::kJson);
  }
  if (!options.csv_path.empty() && !enabled(ReportFormat::kCsv)) {
    formats.push_back(ReportFormat::kCsv);
  }
  if (!options.svg_path.empty() && !enabled(ReportFormat::kSvg)) {
    formats.push_back(ReportFormat::kSvg);
  }

  std::vector<std::unique_ptr<ReportSink>> sinks;
  for (ReportFormat format : formats) {
    switch (format) {
      case ReportFormat::kConsole:
        sinks.push_back(std::make_unique<ConsoleSink>());
        break;
      case ReportFormat::kJson:
        sinks.push_back(std::make_unique<JsonSink>(
            !options.json_path.empty() ? options.json_path
                                       : scenario_name + ".json"));
        break;
      case ReportFormat::kCsv:
        sinks.push_back(std::make_unique<CsvSink>(
            !options.csv_path.empty() ? options.csv_path
                                      : scenario_name + ".csv"));
        break;
      case ReportFormat::kSvg:
        sinks.push_back(std::make_unique<SvgSink>(
            !options.svg_path.empty() ? options.svg_path
                                      : scenario_name + ".svg"));
        break;
    }
  }
  return sinks;
}

}  // namespace

int ScenarioSuite::run(std::string_view name,
                       const ScenarioOptions& options) const {
  const Scenario* scenario = find(name);
  if (scenario == nullptr) {
    std::fprintf(stderr, "unknown scenario '%.*s'",
                 static_cast<int>(name.size()), name.data());
    auto near_matches = suggestions(name);
    if (!near_matches.empty()) {
      std::fprintf(stderr, "; did you mean:\n");
      for (const auto& s : near_matches) {
        std::fprintf(stderr, "  %s\n", s.c_str());
      }
      std::fprintf(stderr, "available:\n");
    } else {
      std::fprintf(stderr, "; available:\n");
    }
    for (const auto& s : scenarios_) {
      std::fprintf(stderr, "  %-18s %s\n", s.name.c_str(),
                   s.description.c_str());
    }
    return 2;
  }
  const std::string count_error =
      negative_count_error(options.networks, options.pairs, options.threads);
  if (!count_error.empty()) {
    std::fprintf(stderr, "%s\n", count_error.c_str());
    return 2;
  }

  std::string sink_error;
  auto sinks = make_sinks(options, scenario->name, &sink_error);
  if (sinks.empty()) {
    std::fprintf(stderr, "%s\n", sink_error.c_str());
    return 2;
  }

  ScenarioReport report;
  report.scenario = scenario->name;
  int code = scenario->build(options, report);

  // An aborted report only carries its failure message in the console
  // blocks; if the user selected structured sinks only, route those blocks
  // to stderr so the failure isn't silent.
  auto is_console_sink = [](const std::unique_ptr<ReportSink>& sink) {
    return std::string_view(sink->name()) == "console";
  };
  if (report.aborted &&
      std::none_of(sinks.begin(), sinks.end(), is_console_sink)) {
    ConsoleSink(stderr).emit(report);
  }

  for (const auto& sink : sinks) {
    // The console stream always prints (it carries the scenario's own
    // failure messages); structured sinks skip aborted half-built reports.
    bool is_console = is_console_sink(sink);
    if (report.aborted && !is_console) continue;
    if (!sink->emit(report)) {
      std::string destination = sink->destination();
      std::fprintf(stderr, "cannot write %s\n",
                   destination.empty() ? sink->name() : destination.c_str());
      if (code == 0) code = 1;
    }
  }
  return code;
}

ScenarioSuite& ScenarioSuite::builtin() {
  static ScenarioSuite suite = [] {
    ScenarioSuite s;
    s.add({"fig5-max-hops",
           "paper Fig. 5: maximum hops per scheme, IA + FA models",
           [](const ScenarioOptions& o, ScenarioReport& r) {
             r.textf("== Fig. 5: maximum number of hops of a GF, LGF, "
                     "SLGF, SLGF2 routing ==\n\n");
             return run_figure(
                 o, "Fig. 5", "max hops",
                 [](const RouteAggregate& agg) { return agg.max_hops(); }, 0,
                 r);
           }});
    s.add({"fig6-avg-hops",
           "paper Fig. 6: average hops per scheme, IA + FA models",
           [](const ScenarioOptions& o, ScenarioReport& r) {
             r.textf("== Fig. 6: average number of hops of a GF, LGF, "
                     "SLGF, SLGF2 routing ==\n\n");
             return run_figure(
                 o, "Fig. 6", "avg hops",
                 [](const RouteAggregate& agg) { return agg.hops.mean(); }, 2,
                 r);
           }});
    s.add({"fig7-path-length",
           "paper Fig. 7: average path length per scheme, IA + FA models",
           [](const ScenarioOptions& o, ScenarioReport& r) {
             r.textf("== Fig. 7: average length of a GF, LGF, SLGF, SLGF2 "
                     "routing ==\n\n");
             return run_figure(
                 o, "Fig. 7", "avg path length (m)",
                 [](const RouteAggregate& agg) { return agg.length.mean(); },
                 1, r);
           }});
    s.add({"ablation", "SLGF2 mechanism ablation (FA model)", run_ablation});
    s.add({"delivery",
           "delivery ratio of the paper schemes, MFR, Compass and flooding",
           run_delivery});
    s.add({"stretch",
           "hop and length stretch vs the BFS / Dijkstra optima per scheme",
           run_stretch});
    s.add({"construction-cost",
           "distributed labeling cost (Algorithm 2) vs a naive re-flood",
           run_construction_cost});
    s.add({"hole-field",
           "unsafe-labeling share and per-scheme delivery on large holes",
           run_hole_field});
    s.add({"failure-dynamics",
           "node-failure blast: incremental relabeling + delivery before/after",
           run_failure_dynamics});
    s.add({"mobile-stream",
           "SLGF2 stream across random-waypoint mobility epochs",
           run_mobile_stream});
    s.add({"streaming-delivery",
           "discrete-event packet streams with mid-stream failure waves and "
           "incremental relabeling",
           run_streaming_delivery});
    s.add({"mobility-rate",
           "re-pin interval x speed sweep: incremental with_moves relabeling "
           "under random-waypoint motion",
           run_mobility_rate});
    s.add({"sweep-scaling",
           "parallel vs serial sweep: wall-clock ratio + bit-identical check",
           run_sweep_scaling});
    s.add({"tile-scaling",
           "spatial-tile labeling + failure wave + mobility epoch across "
           "tile grids x threads: timing curve + bit-identity gate",
           run_tile_scaling});
    return s;
  }();
  return suite;
}

}  // namespace spr
