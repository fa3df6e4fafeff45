/// \file sweep.cpp
/// The `sweep` workload: the paper's figure grid. IA and FA deployments at
/// 400..800 nodes (step 50), 20 pairs per network, GF/LGF/SLGF/SLGF2, run
/// through spr::run_sweep on a 4-thread pool. A job is one IA sweep plus
/// one FA sweep; `cells_per_s` is the cells of a job over its median wall
/// time.
///
/// The traced job drives the same cells through the same public calls on a
/// pool of the same size — deploy, Network(Deployment), zones, force,
/// sweep_cell_pairs, OracleBatch, route_batch per scheme, with GF built
/// through GfRouter's lazy-provider constructor so the overlay and
/// BOUNDHOLE builds get spans of their own — and its merged result must
/// equal the untraced run_sweep result.

#include <algorithm>
#include <optional>

#include "bench.h"
#include "core/experiment.h"
#include "graph/graph_algos.h"
#include "routing/gf.h"
#include "util/task_pool.h"

namespace perfbench {

namespace {

using spr::SweepConfig;
using spr::SweepPoint;

constexpr double kEps = 1e-12;

/// The IA and FA sweeps of grid `grid`: every job draws a fresh grid, so a
/// run's median averages over many networks, not over one draw.
std::vector<SweepConfig> sweep_configs(const Options& options, int grid) {
  std::vector<SweepConfig> configs;
  for (spr::DeployModel model :
       {spr::DeployModel::kIdeal, spr::DeployModel::kForbiddenAreas}) {
    SweepConfig config;
    config.model = model;
    if (options.tiny) {
      config.node_counts = {400, 600};
      config.networks_per_point = 1;
      config.pairs_per_network = 5;
    } else {
      config.networks_per_point = 4;
      config.pairs_per_network = 20;
    }
    config.base_seed =
        mix_seed(options.seed, 2 * static_cast<std::uint64_t>(grid) + configs.size() + 1);
    config.schemes = SweepConfig::paper_schemes();
    config.threads = kPoolThreads;
    configs.push_back(std::move(config));
  }
  return configs;
}

spr::NetworkConfig cell_network_config(const SweepConfig& config, int n, int i) {
  spr::NetworkConfig net;
  net.deployment = config.deployment_template;
  net.deployment.model = config.model;
  net.deployment.node_count = n;
  net.seed = spr::sweep_cell_seed(config, n, i);
  return net;
}

std::size_t cell_count(const SweepConfig& config) {
  return config.node_counts.size() *
         static_cast<std::size_t>(config.networks_per_point);
}

std::vector<std::string> scheme_labels(const SweepConfig& config) {
  std::vector<std::string> labels;
  for (const auto& spec : config.schemes) labels.push_back(spec.display_label());
  return labels;
}

/// Digest of every aggregate of a sweep: counts and every retained sample.
void digest_points(Digest& d, const std::vector<SweepPoint>& points) {
  for (const SweepPoint& point : points) {
    d.add(point.node_count);
    for (const auto& [label, agg] : point.by_scheme) {
      for (char c : label) d.add(c);
      d.add(agg.requested);
      d.add(agg.attempted);
      d.add(agg.delivered);
      for (const spr::Summary* s :
           {&agg.hops, &agg.length, &agg.stretch_hops, &agg.stretch_length,
            &agg.perimeter_hops, &agg.backup_hops, &agg.local_minima}) {
        d.add_values(s->values());
      }
    }
  }
}

/// Pairs per cell, to attribute GF's per-packet samples to cells: a point
/// whose every scheme routed all requested pairs had pairs_per_network in
/// each cell; a point with a shortfall has its cells' pairs drawn again.
std::vector<std::size_t> pairs_per_cell(const SweepConfig& config,
                                        const std::vector<SweepPoint>& points) {
  std::vector<std::size_t> counts;
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const auto& by_scheme = points[pi].by_scheme;
    const bool full = std::all_of(by_scheme.begin(), by_scheme.end(), [](const auto& e) {
      return e.second.pair_shortfall() == 0;
    });
    for (int i = 0; i < config.networks_per_point; ++i) {
      const int n = config.node_counts[pi];
      if (full) {
        counts.push_back(static_cast<std::size_t>(config.pairs_per_network));
      } else {
        spr::Network net = spr::Network::create(cell_network_config(config, n, i));
        counts.push_back(spr::sweep_cell_pairs(config, net, n, i).size());
      }
    }
  }
  return counts;
}

/// Every scheme must have routed each pair the sweep drew and counted
/// (`timings`, filled by run_sweep's cells) exactly once.
void check_pair_totals(Result& result, const SweepConfig& config,
                       const std::vector<SweepPoint>& points,
                       const spr::SweepTimings& timings) {
  for (const std::string& label : scheme_labels(config)) {
    std::uint64_t requested = 0, attempted = 0;
    for (const SweepPoint& point : points) {
      auto it = point.by_scheme.find(label);
      if (it == point.by_scheme.end()) continue;
      requested += it->second.requested;
      attempted += it->second.attempted;
    }
    result.check(requested == timings.pairs_requested && attempted == timings.pairs_routed,
                 cell_count(config), label + " routed a different pair count than was drawn");
  }
}

/// Checks one sweep's aggregates; returns the number of cells whose GF
/// packets met a local minimum (the cells that build BOUNDHOLE).
std::size_t check_points(Result& result, const SweepConfig& config,
                         const std::vector<SweepPoint>& points,
                         const std::vector<std::size_t>& pairs_per_cell) {
  const std::size_t per_point = static_cast<std::size_t>(config.networks_per_point);
  std::size_t boundhole_cells = 0;
  result.check(points.size() == config.node_counts.size(), cell_count(config),
               "sweep point count");
  for (std::size_t pi = 0; pi < points.size(); ++pi) {
    const std::string where = " at n=" + std::to_string(points[pi].node_count);
    for (const auto& [label, agg] : points[pi].by_scheme) {
      bool ok = agg.attempted + agg.pair_shortfall() == agg.requested &&
                agg.delivered <= agg.attempted && agg.hops.count() == agg.delivered &&
                agg.length.count() == agg.delivered &&
                agg.local_minima.count() == agg.attempted;
      result.check(ok, per_point, label + " outcome counts" + where);
      bool bound = true;  // no delivered route shorter than its BFS optimum
      for (double s : agg.stretch_hops.values()) bound &= s >= 1.0 - kEps;
      result.check(bound, per_point, label + " route below BFS optimum" + where);
    }
    // GF's per-packet local minima, in cell order: a cell builds BOUNDHOLE
    // iff one of its packets met a local minimum.
    auto gf = points[pi].by_scheme.find("GF");
    if (gf == points[pi].by_scheme.end()) continue;
    const auto& minima = gf->second.local_minima.values();
    std::size_t offset = 0;
    for (std::size_t c = 0; c < per_point; ++c) {
      const std::size_t count = pairs_per_cell[pi * per_point + c];
      bool hit = false;
      for (std::size_t k = offset; k < offset + count && k < minima.size(); ++k) {
        hit |= minima[k] > 0.0;
      }
      boundhole_cells += hit;
      offset += count;
    }
  }
  return boundhole_cells;
}

const char* route_span(spr::Scheme scheme) {
  switch (scheme) {
    case spr::Scheme::kGf: return "routing.gf";
    case spr::Scheme::kLgf: return "routing.lgf";
    case spr::Scheme::kSlgf: return "routing.slgf";
    case spr::Scheme::kSlgf2: return "routing.slgf2";
    case spr::Scheme::kGfFace: return "routing.gf_face";
  }
  return "routing.other";
}

/// Work counts of the traced cells.
struct TracedCounts {
  std::mutex mutex;
  double pairs = 0, repeated_pairs = 0, unsafe_nodes = 0, hops = 0, local_minima = 0;
  std::vector<double> boundhole_builds;  ///< per config
  std::size_t below_optimum = 0;
};

/// One cell through the public calls run_sweep composes, with spans.
spr::CellResult traced_cell(const SweepConfig& config, std::size_t config_index,
                            int n, int i, int job_span, std::uint64_t group,
                            TracedCounts& counts) {
  TaskScope scope(job_span, group);
  Span cell("experiment.cell");
  spr::CellResult result;
  unsigned needs = spr::Network::kNeedsNone;
  for (const auto& spec : config.schemes) {
    result.emplace(spec.display_label(), spr::RouteAggregate{});
    needs |= spr::Network::needs_for(spec.scheme);
  }
  const spr::NetworkConfig net_config = cell_network_config(config, n, i);
  spr::Deployment deployment;
  {
    Span span("deploy.deploy");
    spr::Rng rng(net_config.seed);
    deployment = spr::deploy(net_config.deployment, rng);
  }
  std::optional<spr::Network> built;
  {
    Span span("graph.build");
    built.emplace(std::move(deployment), net_config.edge_band, nullptr);
  }
  const spr::Network& net = *built;
  {
    Span span("graph.zones");
    net.graph().zones();
  }
  {
    Span span("safety.label");
    net.force(needs);
  }
  std::vector<std::pair<spr::NodeId, spr::NodeId>> pairs;
  {
    Span span("experiment.pair_draw");
    pairs = spr::sweep_cell_pairs(config, net, n, i);
  }
  std::optional<spr::OracleBatch> oracles;
  {
    Span span("graph.oracle");
    oracles.emplace(net.graph(), pairs);
  }
  // A flight repeats when its (src, dst) already flew in the cell; every
  // scheme routes the same pairs, so the share is the same per scheme.
  double repeated = 0;
  for (auto it = pairs.begin(); it != pairs.end(); ++it) {
    repeated += std::find(pairs.begin(), it, *it) != it;
  }
  double hops = 0, minima = 0;
  std::size_t below = 0;
  for (const auto& spec : config.schemes) {
    std::vector<spr::PathResult> routes;
    {
      Span span(route_span(spec.scheme));
      if (spec.scheme == spr::Scheme::kGf) {
        // make_router(kGf)'s wiring, with the lazy builds in spans.
        spr::GfRouter router(
            net.graph(),
            [&net]() -> const spr::PlanarOverlay& {
              Span build("graph.overlay");
              return net.overlay();
            },
            [&net]() -> const spr::BoundHoleInfo* {
              Span build("routing.boundhole");
              return &net.boundhole();
            },
            spr::GfRouter::Recovery::kBoundHole);
        routes = router.route_batch(pairs, config.route_options);
      } else {
        auto router = net.make_router(spec.scheme, spec.slgf2_options);
        routes = router->route_batch(pairs, config.route_options);
      }
    }
    spr::RouteAggregate& agg = result.at(spec.display_label());
    agg.requested += static_cast<std::size_t>(std::max(config.pairs_per_network, 0));
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      agg.record(routes[k], &oracles->hop_optimal(k), &oracles->length_optimal(k));
      hops += static_cast<double>(routes[k].hops());
      minima += static_cast<double>(routes[k].local_minima);
      below += routes[k].delivered() &&
               routes[k].hops() < oracles->hop_optimal(k).hops();
    }
  }
  std::lock_guard<std::mutex> lock(counts.mutex);
  counts.pairs += static_cast<double>(pairs.size());
  counts.repeated_pairs += repeated;
  counts.unsafe_nodes += static_cast<double>(net.safety().unsafe_node_count());
  counts.hops += hops;
  counts.local_minima += minima;
  counts.boundhole_builds[config_index] += net.has_boundhole() ? 1.0 : 0.0;
  counts.below_optimum += below;
  return result;
}

}  // namespace

int run_sweep(const Options& options, Result& result) {
  // Untraced jobs, each on a fresh grid; with --trace 1 every untraced job
  // is followed by a traced job on the same grid. A sweep builds its inputs
  // inside the job: every cell deploys, builds its network and draws its
  // pairs. setup_s is the median over jobs of that input-building time,
  // summed over the job's cells (run_sweep's SweepTimings).
  std::vector<double> setup_times, untraced_walls, traced_walls;
  std::vector<std::pair<double, double>> traced_windows;
  std::string reference, grid_digest;
  std::vector<double> boundhole_cells(2, 0.0);
  std::size_t untraced_cells = 0, grid_boundhole_cells = 0;
  ProcTotals proc;
  TracedCounts counts;
  counts.boundhole_builds.assign(2, 0.0);
  spr::OracleSearchCounts traced_searches{};
  run_jobs(options, [&](int grid, bool traced) {
    const std::vector<SweepConfig> configs = sweep_configs(options, grid);
    std::size_t cells = 0;
    for (const auto& config : configs) cells += cell_count(config);
    result.operations(cells);
    std::vector<std::vector<SweepPoint>> results;
    if (!traced) {
      std::vector<spr::SweepTimings> timings(configs.size());
      proc.start();
      const double t0 = now_s();
      for (std::size_t c = 0; c < configs.size(); ++c) {
        results.push_back(spr::run_sweep(configs[c], {}, &timings[c]));
      }
      untraced_walls.push_back(now_s() - t0);
      proc.stop();
      untraced_cells += cells;
      double setup = 0.0;
      for (std::size_t c = 0; c < configs.size(); ++c) {
        setup += timings[c].construction_seconds + timings[c].pair_draw_seconds;
        check_pair_totals(result, configs[c], results[c], timings[c]);
      }
      setup_times.push_back(setup);
    } else {
      const spr::OracleSearchCounts s0 = spr::oracle_search_counts();
      const double before = counts.boundhole_builds[0] + counts.boundhole_builds[1];
      const double t0 = now_s();
      {
        Span job_span("job.sweep");
        for (std::size_t c = 0; c < configs.size(); ++c) {
          const SweepConfig& config = configs[c];
          std::vector<spr::SliceCell> slice;
          for (int n : config.node_counts) {
            for (int i = 0; i < config.networks_per_point; ++i) slice.push_back({n, i, {}});
          }
          spr::TaskPool pool(config.threads);
          pool.parallel_for(slice.size(), [&](std::size_t k) {
            const std::uint64_t group = (c + 1) * 100000 + k + 1;
            slice[k].result = traced_cell(config, c, slice[k].node_count,
                                          slice[k].net_index, job_span.id(), group,
                                          counts);
          });
          results.push_back(spr::merge_cell_results(
              config.node_counts, scheme_labels(config), std::move(slice)));
        }
      }
      const double t1 = now_s();
      const spr::OracleSearchCounts s1 = spr::oracle_search_counts();
      traced_searches.bfs_trees += s1.bfs_trees - s0.bfs_trees;
      traced_searches.dijkstra_trees += s1.dijkstra_trees - s0.dijkstra_trees;
      traced_walls.push_back(t1 - t0);
      traced_windows.emplace_back(t0, t1);
      const double built = counts.boundhole_builds[0] + counts.boundhole_builds[1] - before;
      result.check(built == static_cast<double>(grid_boundhole_cells), cells,
                   "traced BOUNDHOLE builds differ from the untraced sweep");
    }
    // Checks: outcome counts and the BFS bound for every job.
    Digest digest;
    std::size_t built = 0;
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const std::size_t cell_builds = check_points(result, configs[c], results[c],
                                                   pairs_per_cell(configs[c], results[c]));
      if (!traced) boundhole_cells[c] += static_cast<double>(cell_builds);
      built += cell_builds;
      digest_points(digest, results[c]);
    }
    if (traced) {
      result.check(digest.hex() == grid_digest, cells, "traced sweep differs from run_sweep");
    } else {
      grid_digest = digest.hex();
      grid_boundhole_cells = built;
    }
    if (reference.empty()) reference = digest.hex();
  });
  result.set_digest(reference);

  const double job_s = median(untraced_walls);
  const double cells_per_job =
      static_cast<double>(untraced_cells) / static_cast<double>(untraced_walls.size());
  result.metric("setup_s", median(setup_times), "s");
  result.metric("job_s", job_s, "s");
  result.samples("setup_s", setup_times);
  result.samples("job_s", untraced_walls);
  result.metric("cells_per_s", cells_per_job / job_s, "cells/s");
  result.metric("peak_rss_mb", proc_counters().peak_rss_mb, "MB");

  // Per-layer figures.
  const double jobs = static_cast<double>(untraced_walls.size());
  proc.report(result);
  result.metric("routing.boundhole_builds",
                (boundhole_cells[0] + boundhole_cells[1]) / jobs, "count");
  // Each model runs half of every job's cells.
  result.metric("routing.boundhole_cells_ia_share",
                2.0 * boundhole_cells[0] / static_cast<double>(untraced_cells), "share");
  result.metric("routing.boundhole_cells_fa_share",
                2.0 * boundhole_cells[1] / static_cast<double>(untraced_cells), "share");

  if (options.trace) {
    const double traced_jobs = static_cast<double>(traced_walls.size());
    const std::vector<SpanRecord> spans = Tracer::instance().spans();
    Budget budget;
    budget.lanes = kPoolThreads;
    for (const auto& [t0, t1] : traced_windows) add_window(budget, spans, t0, t1);
    report_layers(result, budget,
                  {"experiment.cell", "experiment.pair_draw", "deploy.deploy", "graph.build",
                   "graph.zones", "safety.label", "graph.oracle", "graph.overlay",
                   "routing.boundhole", "routing.gf", "routing.lgf", "routing.slgf",
                   "routing.slgf2"});
    // GF's own routing time excludes the overlay and BOUNDHOLE builds.
    const LayerRow& gf = budget.rows["routing.gf"];
    result.metric("routing.gf_ms",
                  1e3 * gf.self_s / static_cast<double>(std::max<std::size_t>(gf.calls, 1)),
                  "ms");
    const std::vector<double>& cell_times = budget.rows["experiment.cell"].durations;
    // The tail is the highest of p99/p90 with at least ten samples beyond.
    const double n_cells = static_cast<double>(cell_times.size());
    const double tail_p = n_cells * 0.01 >= 10 ? 99.0 : 90.0;
    result.metric("experiment.cell_ms", 1e3 * median(cell_times), "ms");
    result.metric("experiment.cell_tail_ms", 1e3 * percentile(cell_times, tail_p), "ms");
    result.note("experiment.cell_tail_ms is p" + std::to_string(static_cast<int>(tail_p)) +
                " over " + std::to_string(cell_times.size()) + " cells");
    result.metric("experiment.pairs_routed", counts.pairs / traced_jobs, "count");
    result.metric("sim.repeat_share",
                  counts.pairs > 0 ? counts.repeated_pairs / counts.pairs : 0.0, "share");
    result.metric("graph.oracle_searches",
                  static_cast<double>(traced_searches.bfs_trees + traced_searches.dijkstra_trees) /
                      traced_jobs,
                  "count");
    result.metric("safety.unsafe_nodes", counts.unsafe_nodes / traced_jobs, "count");
    result.metric("routing.hops", counts.hops / traced_jobs, "count");
    result.metric("routing.local_minima", counts.local_minima / traced_jobs, "count");
    result.check(counts.below_optimum == 0, result.attempted(),
                 "traced route below its BFS optimum");
    result.metric("trace.overhead", median(traced_walls) / job_s - 1.0, "share");
  }
  return 0;
}

}  // namespace perfbench
