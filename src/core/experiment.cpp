#include "core/experiment.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "graph/graph_algos.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace spr {

namespace {
/// SplitMix-style mixing of sweep coordinates into a network seed.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t a, std::uint64_t b,
                       std::uint64_t c) {
  std::uint64_t z = base ^ (a * 0x9E3779B97F4A7C15ULL) ^
                    (b * 0xBF58476D1CE4E5B9ULL) ^ (c * 0x94D049BB133111EBULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}
}  // namespace

const std::string& SchemeSpec::display_label() const {
  static const std::string kNames[] = {"GF", "GF/face", "LGF", "SLGF", "SLGF2"};
  if (!label.empty()) return label;
  switch (scheme) {
    case Scheme::kGf: return kNames[0];
    case Scheme::kGfFace: return kNames[1];
    case Scheme::kLgf: return kNames[2];
    case Scheme::kSlgf: return kNames[3];
    case Scheme::kSlgf2: return kNames[4];
  }
  return kNames[4];
}

std::vector<SchemeSpec> SweepConfig::paper_schemes() {
  return {{Scheme::kGf, {}, ""},
          {Scheme::kLgf, {}, ""},
          {Scheme::kSlgf, {}, ""},
          {Scheme::kSlgf2, {}, ""}};
}

std::uint64_t sweep_cell_seed(const SweepConfig& config, int node_count,
                              int net_index) {
  const auto model_tag =
      static_cast<std::uint64_t>(config.model == DeployModel::kIdeal ? 1 : 2);
  return mix_seed(config.base_seed, model_tag,
                  static_cast<std::uint64_t>(node_count),
                  static_cast<std::uint64_t>(net_index));
}

namespace {

/// The exact pair drawing of cell (node_count, net_index), into any
/// vector-like output (heap or arena backed).
template <typename PairVec>
void draw_cell_pairs(const SweepConfig& config, const Network& network,
                     int node_count, int net_index, PairVec& out) {
  Rng pair_rng(
      mix_seed(sweep_cell_seed(config, node_count, net_index), 7, 7, 7));
  out.reserve(static_cast<size_t>(std::max(config.pairs_per_network, 0)));
  for (int p = 0; p < config.pairs_per_network; ++p) {
    auto pair = network.random_connected_interior_pair(pair_rng);
    if (pair.first != kInvalidNode) out.push_back(pair);
  }
}

/// Runs one independent sweep cell: draw the network, pick the pairs, run
/// the point-to-point oracle per pair, batch-route every scheme over the
/// same pairs. `timings` (never null) receives this cell's cost breakdown.
CellResult run_cell(const SweepConfig& config, int n, int net_index,
                    SweepTimings* timings) {
  CellResult cell;
  for (const auto& spec : config.schemes) {
    cell.emplace(spec.display_label(), RouteAggregate{});
  }

  NetworkConfig net_config;
  net_config.deployment = config.deployment_template;
  net_config.deployment.model = config.model;
  net_config.deployment.node_count = n;
  net_config.seed = sweep_cell_seed(config, n, net_index);
  auto start = std::chrono::steady_clock::now();
  Network network = Network::create(net_config);
  // Force every structure the scheme set will touch, so the construction
  // bucket really holds construction (GF's recovery structures stay lazy by
  // design — if a packet gets stuck their build lands in the routing
  // bucket, which is exactly the cost model the paper argues about).
  unsigned needs = Network::kNeedsNone;
  for (const auto& spec : config.schemes) {
    needs |= Network::needs_for(spec.scheme);
  }
  network.force(needs);
  timings->construction_seconds += seconds_since(start);

  // The pair buffer comes from a worker-local monotonic arena: reset per
  // cell, high-water block kept, so steady-state cells stop touching the
  // general heap for it. Allocation placement cannot change results.
  thread_local Arena cell_scratch;
  cell_scratch.reset();
  ArenaVector<std::pair<NodeId, NodeId>> pairs{
      ArenaAllocator<std::pair<NodeId, NodeId>>(cell_scratch)};

  // Same pairs for every scheme: the comparison is paired.
  start = std::chrono::steady_clock::now();
  draw_cell_pairs(config, network, n, net_index, pairs);
  timings->pair_draw_seconds += seconds_since(start);
  timings->pairs_requested += static_cast<std::uint64_t>(
      std::max(config.pairs_per_network, 0));
  timings->pairs_routed += pairs.size();

  // One bidirectional BFS + one A* per pair, shared by every scheme. Drawn
  // pairs are in range with s != d, so each pair runs both.
  start = std::chrono::steady_clock::now();
  OracleBatch oracles(network.graph(), pairs);
  timings->oracle_seconds += seconds_since(start);
  timings->bfs_searches += pairs.size();
  timings->dijkstra_searches += pairs.size();

  start = std::chrono::steady_clock::now();
  for (const auto& spec : config.schemes) {
    auto router = network.make_router(spec.scheme, spec.slgf2_options);
    RouteAggregate& agg = cell.at(spec.display_label());
    agg.requested += static_cast<std::size_t>(
        std::max(config.pairs_per_network, 0));
    std::vector<PathResult> results =
        router->route_batch(pairs, config.route_options);
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      agg.record(results[i], &oracles.hop_optimal(i),
                 &oracles.length_optimal(i));
    }
  }
  timings->routing_seconds += seconds_since(start);
  return cell;
}

/// The cells of slice `slice_index` of `slice_count`: every cell whose
/// canonical index (point-major: node_counts outer, net_index inner) is
/// congruent to `slice_index`, in that order, results empty.
std::vector<SliceCell> slice_cells(const SweepConfig& config, int slice_index,
                                   int slice_count) {
  std::vector<SliceCell> cells;
  std::size_t global_index = 0;
  for (int node_count : config.node_counts) {
    for (int i = 0; i < config.networks_per_point; ++i, ++global_index) {
      if (global_index % static_cast<std::size_t>(slice_count) ==
          static_cast<std::size_t>(slice_index)) {
        cells.push_back({node_count, i, {}});
      }
    }
  }
  return cells;
}

/// The sweep's one cell runner: fills each cell's result through run_cell,
/// serially or on the config's pool, and returns the summed cost
/// breakdown. `progress`, when set, fires once per cell under a lock.
SweepTimings run_cells(const SweepConfig& config,
                       std::vector<SliceCell>& cells,
                       const SweepProgress& progress) {
  SweepTimings spent;
  std::mutex mutex;
  for_each_cell(config.threads, cells.size(), [&](std::size_t ci) {
    SliceCell& cell = cells[ci];
    if (progress) {
      std::lock_guard<std::mutex> lock(mutex);
      progress(cell.node_count, cell.net_index, config.networks_per_point);
    }
    SweepTimings cell_timings;
    cell.result =
        run_cell(config, cell.node_count, cell.net_index, &cell_timings);
    std::lock_guard<std::mutex> lock(mutex);
    spent.merge(cell_timings);
  });
  return spent;
}

}  // namespace

CellResult run_sweep_cell(const SweepConfig& config, int node_count,
                          int net_index, SweepTimings* timings) {
  SweepTimings scratch;
  return run_cell(config, node_count, net_index,
                  timings != nullptr ? timings : &scratch);
}

std::vector<SliceCell> run_sweep_slice(const SweepConfig& config,
                                       int slice_index, int slice_count,
                                       SweepTimings* timings) {
  if (slice_count < 1 || slice_index < 0 || slice_index >= slice_count) {
    return {};
  }
  std::vector<SliceCell> cells = slice_cells(config, slice_index, slice_count);
  const SweepTimings spent = run_cells(config, cells, {});
  if (timings != nullptr) timings->merge(spent);
  return cells;
}

std::vector<SweepPoint> merge_cell_results(
    const std::vector<int>& node_counts,
    const std::vector<std::string>& scheme_labels,
    std::vector<SliceCell> cells) {
  // Point index of each node count; cells at unknown counts are dropped.
  auto point_of = [&](int node_count) -> std::size_t {
    for (std::size_t pi = 0; pi < node_counts.size(); ++pi) {
      if (node_counts[pi] == node_count) return pi;
    }
    return node_counts.size();
  };
  // Merge in canonical cell order (point-major, net_index inner), so
  // Summary::merge sees one sample sequence whichever worker, slice or
  // file each cell came from.
  std::stable_sort(cells.begin(), cells.end(),
                   [&](const SliceCell& a, const SliceCell& b) {
                     std::size_t pa = point_of(a.node_count);
                     std::size_t pb = point_of(b.node_count);
                     if (pa != pb) return pa < pb;
                     return a.net_index < b.net_index;
                   });

  std::vector<SweepPoint> points(node_counts.size());
  for (std::size_t pi = 0; pi < node_counts.size(); ++pi) {
    points[pi].node_count = node_counts[pi];
    for (const auto& label : scheme_labels) {
      points[pi].by_scheme.emplace(label, RouteAggregate{});
    }
  }
  for (const auto& cell : cells) {
    std::size_t pi = point_of(cell.node_count);
    if (pi >= points.size()) continue;
    for (const auto& [label, agg] : cell.result) {
      auto it = points[pi].by_scheme.find(label);
      if (it != points[pi].by_scheme.end()) it->second.merge(agg);
    }
  }
  return points;
}

std::vector<std::pair<NodeId, NodeId>> sweep_cell_pairs(
    const SweepConfig& config, const Network& network, int node_count,
    int net_index) {
  std::vector<std::pair<NodeId, NodeId>> pairs;
  draw_cell_pairs(config, network, node_count, net_index, pairs);
  return pairs;
}

std::vector<SweepPoint> run_sweep(const SweepConfig& config,
                                  const SweepProgress& progress,
                                  SweepTimings* timings) {
  // merge_cell_results keys points by node count: a repeated count would
  // pool both points' cells into the first.
  std::vector<int> counts = config.node_counts;
  std::sort(counts.begin(), counts.end());
  SPR_CHECK(std::adjacent_find(counts.begin(), counts.end()) == counts.end(),
            "run_sweep: a node count appears twice in node_counts");

  std::vector<SliceCell> cells = slice_cells(config, 0, 1);
  const SweepTimings spent = run_cells(config, cells, progress);
  if (timings != nullptr) *timings = spent;
  std::vector<std::string> labels;
  for (const auto& spec : config.schemes) {
    labels.push_back(spec.display_label());
  }
  return merge_cell_results(config.node_counts, labels, std::move(cells));
}

void for_each_cell(int threads, std::size_t count,
                   const std::function<void(std::size_t)>& fn) {
  if (threads == 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  TaskPool pool(threads);
  pool.parallel_for(count, fn);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace spr
