/// \file spr_cli.cpp
/// Command-line front end to the library:
///
///   spr_cli info     [flags]            network structure summary
///   spr_cli label    [flags]            safety labeling summary / dump
///   spr_cli route    [flags] [<s> <d>]  route one pair with every scheme
///   spr_cli sweep    [flags]            mini figure sweep (table output);
///                                       --slice i/m writes a slice JSON
///   spr_cli merge    [flags] <slice.json>...  merge sweep slices
///   spr_cli validate <file.json>...     parse JSON artifacts (CI gate)
///   spr_cli run      [flags] <name>     run a registered scenario (--list);
///                                       --format console,json,csv,svg
///   spr_cli render   [flags] <out.svg>  render deployment + unsafe areas
///
/// Common flags: --nodes (not on `sweep`, whose grid fixes the node
/// counts), --seed, --fa, --range. A positional argument a command does not
/// take exits 1 (so `--fa false` is rejected; write `--fa=false`).
///
/// Distributed sweeps: the sweep's (node_count, network_index) cells are
/// independent, so `sweep --slice i/m` computes every i-th cell and
/// serializes the full per-cell aggregates; run the m slices on any
/// machines, copy the JSONs back, and `merge` reproduces the in-process
/// sweep bit-identically. (Sweep slices are unrelated to the *spatial
/// tiles* of shard/, which partition one deployment's field; see
/// `label --tiles`.)

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "core/network.h"
#include "core/scenario.h"
#include "graph/graph_algos.h"
#include "graph/metrics.h"
#include "report/serialize.h"
#include "safety/distributed.h"
#include "shard/sharded_network.h"
#include "stats/table.h"
#include "util/flags.h"
#include "util/svg.h"

namespace {

using namespace spr;

struct CommonArgs {
  int nodes = 600;
  unsigned long long seed = 1;
  bool fa = false;
  double range = 20.0;
};

void add_common(FlagSet& flags, CommonArgs& args, bool with_nodes = true) {
  if (with_nodes) flags.add_int("nodes", &args.nodes, "number of sensors");
  flags.add_uint64("seed", &args.seed, "deployment seed");
  flags.add_bool("fa", &args.fa, "forbidden-area deployment model");
  flags.add_double("range", &args.range, "transmission radius (m)");
}

/// Rejects common values no network can be built from: a negative node
/// count or one past `kMaxDeployNodes`, or a radio range that is not finite
/// and positive. Prints the reason; callers exit 2, as for a negative count
/// at `run`.
bool valid_common(const CommonArgs& args) {
  if (args.nodes < 0) {
    std::fprintf(stderr, "nodes must be >= 0, got %d\n", args.nodes);
    return false;
  }
  if (args.nodes > kMaxDeployNodes) {
    std::fprintf(stderr, "nodes must be at most %d, got %d\n",
                 kMaxDeployNodes, args.nodes);
    return false;
  }
  if (!std::isfinite(args.range) || args.range <= 0.0) {
    std::fprintf(stderr, "range must be finite and > 0, got %g\n",
                 args.range);
    return false;
  }
  return true;
}

/// Rejects the positional arguments past the first `most`: a command must
/// not drop a token it does not read (`info --fa false` would otherwise
/// build the FA field). Prints the first stray token; callers exit 1, as for
/// an unknown flag.
bool at_most_positionals(const FlagSet& flags, std::size_t most) {
  const auto& tokens = flags.positional();
  if (tokens.size() <= most) return true;
  std::fprintf(stderr, "unexpected argument '%s'\n", tokens[most].c_str());
  return false;
}

/// Parses a whole token as a number ("5x" is an error, not 5).
template <typename T>
bool parse_full(std::string_view token, T& out) {
  auto [ptr, ec] =
      std::from_chars(token.data(), token.data() + token.size(), out);
  return ec == std::errc() && ptr == token.data() + token.size();
}

Network build_network(const CommonArgs& args) {
  NetworkConfig config;
  config.deployment.node_count = args.nodes;
  config.deployment.radio_range = args.range;
  config.deployment.model =
      args.fa ? DeployModel::kForbiddenAreas : DeployModel::kIdeal;
  config.seed = args.seed;
  return Network::create(config);
}

int cmd_info(int argc, const char* const* argv) {
  CommonArgs args;
  FlagSet flags("spr_cli info: network structure summary");
  add_common(flags, args);
  if (!flags.parse(argc, argv) || !at_most_positionals(flags, 0)) return 1;
  if (!valid_common(args)) return 2;
  Network net = build_network(args);
  const auto& g = net.graph();
  auto degrees = degree_stats(g);
  std::printf("nodes        %zu\n", g.size());
  std::printf("links        %zu\n", g.edge_count());
  std::printf("degree       mean %.2f  min %zu  max %zu\n", degrees.mean,
              degrees.min, degrees.max);
  std::printf("connectivity %.1f%% in largest component\n",
              100.0 * largest_component_fraction(g));
  std::printf("hop diameter ~%zu\n", hop_diameter_estimate(g));
  std::printf("edge nodes   %zu (interest area: %zu interior)\n",
              net.interest_area().edge_count(),
              net.interest_area().interior_nodes().size());
  std::printf("gabriel      %zu edges kept\n", net.overlay().edge_count());
  std::printf("stuck nodes  %zu (TENT rule), %zu hole boundaries\n",
              net.boundhole().stuck_count(), net.boundhole().boundaries().size());
  std::printf("unsafe nodes %zu\n", net.safety().unsafe_node_count());
  return 0;
}

/// Parses "--tiles RxC" (e.g. 2x2); returns false (with a message) when
/// malformed. Empty spec leaves rows/cols at 0 (monolithic labeling).
bool parse_tile_grid(const std::string& spec, int& rows, int& cols) {
  if (spec.empty()) return true;
  std::size_t cross = spec.find('x');
  if (cross == std::string::npos ||
      !parse_full(std::string_view(spec).substr(0, cross), rows) ||
      !parse_full(std::string_view(spec).substr(cross + 1), cols) ||
      rows < 1 || cols < 1) {
    std::fprintf(stderr, "--tiles expects RxC (e.g. 2x2), got '%s'\n",
                 spec.c_str());
    return false;
  }
  return true;
}

int cmd_label(int argc, const char* const* argv) {
  CommonArgs args;
  bool dump = false;
  bool distributed = false;
  std::string tiles_spec;
  FlagSet flags("spr_cli label: safety labeling summary");
  add_common(flags, args);
  flags.add_bool("dump", &dump, "print every unsafe node's tuple and E areas");
  flags.add_bool("distributed", &distributed,
                 "run the distributed construction and report its cost");
  flags.add_string("tiles", &tiles_spec,
                   "also label via an RxC spatial-tile grid and compare");
  if (!flags.parse(argc, argv) || !at_most_positionals(flags, 0)) return 1;
  if (!valid_common(args)) return 2;
  int tile_rows = 0, tile_cols = 0;
  if (!parse_tile_grid(tiles_spec, tile_rows, tile_cols)) return 1;
  // Every tile holds n/64 status words per zone type: the grid is capped at
  // ShardedNetwork::kMaxTiles, and more tiles than nodes only adds empty
  // ones.
  const auto tile_count = static_cast<std::int64_t>(tile_rows) * tile_cols;
  if (tile_count > ShardedNetwork::kMaxTiles) {
    std::fprintf(stderr, "--tiles must give at most %lld tiles, got %dx%d\n",
                 static_cast<long long>(ShardedNetwork::kMaxTiles), tile_rows,
                 tile_cols);
    return 2;
  }
  if (tile_count > std::max<std::int64_t>(args.nodes, 1)) {
    std::fprintf(stderr,
                 "--tiles must give at most max(--nodes, 1) = %d tiles, got "
                 "%dx%d\n",
                 std::max(args.nodes, 1), tile_rows, tile_cols);
    return 2;
  }
  Network net = build_network(args);
  const auto& info = net.safety();

  std::size_t per_type[4] = {0, 0, 0, 0};
  for (NodeId u = 0; u < info.size(); ++u) {
    for (ZoneType t : kAllZoneTypes) {
      if (!info.is_safe(u, t)) ++per_type[zone_index(t)];
    }
  }
  std::printf("unsafe nodes: %zu of %zu\n", info.unsafe_node_count(),
              info.size());
  std::printf("unsafe statuses per type: 1:%zu 2:%zu 3:%zu 4:%zu\n",
              per_type[0], per_type[1], per_type[2], per_type[3]);
  if (distributed) {
    auto result = compute_safety_distributed(net.graph(), net.interest_area());
    std::printf("distributed construction: %s\n",
                result.stats.to_string().c_str());
    std::printf("matches centralized: %s\n",
                result.info == info ? "yes" : "NO");
  }
  if (tile_rows > 0) {
    ShardedNetwork::Config tile_config;
    tile_config.tile_rows = tile_rows;
    tile_config.tile_cols = tile_cols;
    ShardedNetwork sharded(net.graph(), /*edge_band=*/-1.0, tile_config);
    const SafetyInfo& tiled = sharded.safety();
    const ShardStats& ts = sharded.last_stats();
    std::printf("spatial tiles: %dx%d grid\n", tile_rows, tile_cols);
    for (int t = 0; t < sharded.tile_count(); ++t) {
      std::printf("  tile %d: %zu owned + %zu ghosts\n", t,
                  sharded.tile_owned(t),
                  sharded.tile_members(t).size() - sharded.tile_owned(t));
    }
    std::printf("  exchange rounds %zu, halo demotions %zu, flips %zu\n",
                ts.exchange_rounds, ts.halo_demotions, ts.incremental.flips);
    std::printf("  matches monolithic labeling: %s\n",
                tiled == info ? "yes" : "NO");
    if (!(tiled == info)) return 1;
  }
  if (dump) {
    for (NodeId u = 0; u < info.size(); ++u) {
      const auto& tuple = info.tuple(u);
      if (tuple.any_safe() && tuple.to_string() == "(1,1,1,1)") continue;
      Vec2 p = net.graph().position(u);
      std::printf("node %u (%.1f,%.1f) %s", u, p.x, p.y,
                  tuple.to_string().c_str());
      for (ZoneType t : kAllZoneTypes) {
        if (tuple.is_safe(t)) continue;
        Rect e = estimated_area(p, tuple.anchors_for(t));
        std::printf("  E%d=[%.0f:%.0f,%.0f:%.0f]", static_cast<int>(t),
                    e.lo().x, e.hi().x, e.lo().y, e.hi().y);
      }
      std::printf("\n");
    }
  }
  return 0;
}

int cmd_route(int argc, const char* const* argv) {
  CommonArgs args;
  FlagSet flags("spr_cli route [<s> <d>]: route one pair with every scheme");
  add_common(flags, args);
  if (!flags.parse(argc, argv) || !at_most_positionals(flags, 2)) return 1;
  const auto& ids = flags.positional();
  if (ids.size() == 1) {
    std::fprintf(stderr, "route takes two node ids or none, got only '%s'\n",
                 ids[0].c_str());
    return 1;
  }
  if (!valid_common(args)) return 2;
  NodeId s = kInvalidNode, d = kInvalidNode;
  if (ids.size() == 2 &&
      (!parse_full(ids[0], s) || !parse_full(ids[1], d))) {
    std::fprintf(stderr, "node ids must be non-negative integers, got %s %s\n",
                 ids[0].c_str(), ids[1].c_str());
    return 1;
  }
  Network net = build_network(args);
  if (ids.size() == 2) {
    if (s >= net.graph().size() || d >= net.graph().size()) {
      std::fprintf(stderr, "node ids out of range (network has %zu nodes)\n",
                   net.graph().size());
      return 1;
    }
  } else {
    Rng rng(args.seed ^ 0x99);
    std::tie(s, d) = net.random_connected_interior_pair(rng);
    if (s == kInvalidNode) {
      std::fprintf(stderr, "no routable pair\n");
      return 1;
    }
    std::printf("(no pair given; picked %u -> %u)\n", s, d);
  }
  auto oracle = bfs_path(net.graph(), s, d);
  std::printf("optimal: %zu hops, %.1fm\n", oracle.hops(), oracle.length);
  for (Scheme scheme : {Scheme::kGf, Scheme::kGfFace, Scheme::kLgf,
                        Scheme::kSlgf, Scheme::kSlgf2}) {
    auto router = net.make_router(scheme);
    PathResult r = router->route(s, d);
    std::printf("%-8s %s\n", scheme_name(scheme), r.to_string().c_str());
  }
  return 0;
}

/// Prints the standard mini-sweep table for paper-scheme points.
void print_sweep_table(const std::vector<SweepPoint>& points) {
  Table table({"nodes", "GF avg", "LGF avg", "SLGF avg", "SLGF2 avg",
               "SLGF2 max", "SLGF2 deliv"});
  for (const auto& point : points) {
    const auto& s2 = point.by_scheme.at("SLGF2");
    table.add_row({std::to_string(point.node_count),
                   Table::fmt(point.by_scheme.at("GF").hops.mean()),
                   Table::fmt(point.by_scheme.at("LGF").hops.mean()),
                   Table::fmt(point.by_scheme.at("SLGF").hops.mean()),
                   Table::fmt(s2.hops.mean()), Table::fmt(s2.max_hops(), 0),
                   Table::fmt(s2.delivery_ratio())});
  }
  std::fputs(table.render().c_str(), stdout);
}

/// Parses "--slice i/m"; returns false (with a message) when malformed.
/// Both numbers must consume their whole token ("0x/2y" is an error, not
/// slice 0/2).
bool parse_slice_spec(const std::string& spec, int& index, int& count) {
  if (spec.empty()) {
    index = 0;
    count = 1;
    return true;
  }
  std::size_t slash = spec.find('/');
  if (slash == std::string::npos ||
      !parse_full(std::string_view(spec).substr(0, slash), index) ||
      !parse_full(std::string_view(spec).substr(slash + 1), count)) {
    std::fprintf(stderr, "--slice expects i/m (e.g. 0/4), got '%s'\n",
                 spec.c_str());
    return false;
  }
  if (count < 1 || index < 0 || index >= count) {
    std::fprintf(stderr, "--slice index out of range: %s\n", spec.c_str());
    return false;
  }
  return true;
}

int cmd_sweep(int argc, const char* const* argv) {
  CommonArgs args;
  int networks = 10, pairs = 10, threads = 0;
  std::string slice_spec, json_path;
  FlagSet flags("spr_cli sweep: mini paper sweep");
  add_common(flags, args, /*with_nodes=*/false);
  flags.add_int("networks", &networks, "networks per point");
  flags.add_int("pairs", &pairs, "pairs per network");
  flags.add_int("threads", &threads, "sweep threads (0=hardware, 1=serial)");
  flags.add_string("slice", &slice_spec,
                   "compute only slice i/m of the sweep's cells");
  flags.add_string("json", &json_path,
                   "write the per-cell aggregates as a slice JSON here");
  if (!flags.parse(argc, argv) || !at_most_positionals(flags, 0)) return 1;
  const std::string count_error =
      negative_count_error(networks, pairs, threads);
  if (!count_error.empty()) {
    std::fprintf(stderr, "%s\n", count_error.c_str());
    return 2;
  }
  if (!valid_common(args)) return 2;
  int slice_index = 0, slice_count = 1;
  if (!parse_slice_spec(slice_spec, slice_index, slice_count)) return 1;
  if (slice_count > 1 && json_path.empty()) {
    std::fprintf(stderr, "--slice needs --json <path> to store the slice\n");
    return 1;
  }

  SweepConfig config;
  config.model = args.fa ? DeployModel::kForbiddenAreas : DeployModel::kIdeal;
  config.networks_per_point = networks;
  config.pairs_per_network = pairs;
  config.base_seed = args.seed;
  config.threads = threads;
  config.schemes = SweepConfig::paper_schemes();
  config.deployment_template.radio_range = args.range;

  // Compute this slice's cells (the whole sweep when no --slice is given),
  // persist them in full (sample-retaining) form when --json is given, so
  // `spr_cli merge` can reproduce the sweep bit-identically from the slice
  // files, and print the table when the slice is the whole sweep.
  auto cells = run_sweep_slice(config, slice_index, slice_count);
  const std::size_t cell_count = cells.size();
  SweepSlice slice = make_slice(config, slice_index, slice_count,
                                std::move(cells));
  if (!json_path.empty()) {
    if (!to_json(slice).write_file(json_path)) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
  }
  if (slice_count == 1) {
    print_sweep_table(merge_cell_results(config.node_counts,
                                         slice.scheme_labels,
                                         std::move(slice.cells)));
  }
  if (!json_path.empty()) {
    std::printf("wrote slice %d/%d (%zu cells) to %s\n", slice_index,
                slice_count, cell_count, json_path.c_str());
  }
  return 0;
}

int cmd_merge(int argc, const char* const* argv) {
  std::string json_path;
  FlagSet flags(
      "spr_cli merge <slice.json>...: merge serialized sweep slices");
  flags.add_string("json", &json_path, "also write the merged report here");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: spr_cli merge [flags] <slice.json>...\n");
    return 1;
  }

  std::vector<SweepSlice> slices;
  for (const std::string& path : flags.positional()) {
    JsonValue document;
    std::string error;
    if (!JsonValue::parse_file(path, document, &error)) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(), error.c_str());
      return 1;
    }
    SweepSlice slice;
    if (!from_json(document, slice)) {
      std::fprintf(stderr, "%s: not a spr sweep slice file\n", path.c_str());
      return 1;
    }
    slices.push_back(std::move(slice));
  }

  // The merged report: a console line and table, plus the sweep section
  // the JSON sink writes when --json is given. Header identity is read
  // before the slices move into the merge.
  ScenarioReport report;
  report.scenario = "merge";
  report.param("shards", JsonValue::of(static_cast<std::uint64_t>(
                             flags.positional().size())));
  SweepSection& section = report.sweeps.emplace_back();
  const std::string model_tag = slices.front().model_tag;
  if (!deploy_model_from_tag(model_tag, section.model)) {
    section.model = DeployModel::kIdeal;
  }
  section.networks_per_point = slices.front().networks_per_point;
  section.pairs_per_network = slices.front().pairs_per_network;
  section.base_seed = slices.front().base_seed;
  const std::vector<std::string> scheme_labels = slices.front().scheme_labels;

  std::string error;
  if (!merge_slices(std::move(slices), section.points, &error)) {
    std::fprintf(stderr, "merge failed: %s\n", error.c_str());
    return 1;
  }

  report.textf("merged %zu slice file(s): %s model, %d networks x %d pairs "
               "per point, seed %llu\n",
               flags.positional().size(), model_tag.c_str(),
               section.networks_per_point, section.pairs_per_network,
               static_cast<unsigned long long>(section.base_seed));
  Table table({"nodes", "scheme", "avg hops", "max hops", "delivery"});
  for (const auto& point : section.points) {
    for (const auto& label : scheme_labels) {
      const auto& agg = point.by_scheme.at(label);
      table.add_row({std::to_string(point.node_count), label,
                     Table::fmt(agg.hops.mean()),
                     Table::fmt(agg.max_hops(), 0),
                     Table::fmt(agg.delivery_ratio())});
    }
  }
  report.add_table(std::move(table));

  ConsoleSink().emit(report);
  if (!json_path.empty() && !JsonSink(json_path).emit(report)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  return 0;
}

int cmd_validate(int argc, const char* const* argv) {
  FlagSet flags(
      "spr_cli validate <file.json>...: parse JSON artifacts with the "
      "bundled reader (CI validity gate)");
  if (!flags.parse(argc, argv)) return 1;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: spr_cli validate <file.json>...\n");
    return 1;
  }
  int failures = 0;
  for (const std::string& path : flags.positional()) {
    JsonValue document;
    std::string error;
    if (JsonValue::parse_file(path, document, &error)) {
      std::printf("%s: valid JSON (%zu top-level members)\n", path.c_str(),
                  document.size());
    } else {
      std::fprintf(stderr, "%s: INVALID — %s\n", path.c_str(), error.c_str());
      ++failures;
    }
  }
  return failures == 0 ? 0 : 1;
}

int cmd_run(int argc, const char* const* argv) {
  int networks = 0, pairs = 0, threads = 0;
  unsigned long long seed = 0;
  bool list = false;
  std::string formats, json_path, csv_path, svg_path;
  FlagSet flags("spr_cli run <name>: run a registered scenario");
  flags.add_bool("list", &list, "list the registered scenarios");
  flags.add_int("networks", &networks, "networks per point (0=default)");
  flags.add_int("pairs", &pairs, "pairs per network (0=default)");
  flags.add_uint64("seed", &seed, "base seed (0=default)");
  flags.add_int("threads", &threads, "sweep threads (0=hardware, 1=serial)");
  flags.add_string("format", &formats,
                   "report sinks, comma-separated: console,json,csv,svg");
  flags.add_string("json", &json_path, "also write a JSON report here");
  flags.add_string("csv", &csv_path, "also write CSV table exports here");
  flags.add_string("svg", &svg_path, "also write an SVG sweep plot here");
  if (!flags.parse(argc, argv) || !at_most_positionals(flags, list ? 0 : 1)) {
    return 1;
  }

  const auto& suite = ScenarioSuite::builtin();
  if (list || flags.positional().empty()) {
    std::printf("registered scenarios:\n");
    for (const auto& s : suite.scenarios()) {
      std::printf("  %-18s %s\n", s.name.c_str(), s.description.c_str());
    }
    return list ? 0 : 1;
  }

  ScenarioOptions opts;
  opts.networks = networks;
  opts.pairs = pairs;
  opts.seed = seed;
  opts.threads = threads;
  opts.formats = formats;
  opts.json_path = json_path;
  opts.csv_path = csv_path;
  opts.svg_path = svg_path;
  return suite.run(flags.positional().front(), opts);
}

int cmd_render(int argc, const char* const* argv) {
  CommonArgs args;
  FlagSet flags("spr_cli render <out.svg>: render the deployment");
  add_common(flags, args);
  if (!flags.parse(argc, argv) || !at_most_positionals(flags, 1)) return 1;
  if (!valid_common(args)) return 2;
  if (flags.positional().empty()) {
    std::fprintf(stderr, "usage: spr_cli render [flags] <out.svg>\n");
    return 1;
  }
  Network net = build_network(args);
  const auto& g = net.graph();
  SvgCanvas svg(net.deployment().field, 4.0);
  for (const Polygon& area : net.deployment().forbidden_areas) {
    svg.polygon(area, "#f4c7c3", "#c0392b", 0.3, 0.8);
  }
  for (NodeId u = 0; u < g.size(); ++u) {
    for (NodeId v : g.neighbors(u)) {
      if (v > u) svg.line(g.position(u), g.position(v), "#dddddd", 0.15, 0.6);
    }
  }
  for (NodeId u = 0; u < g.size(); ++u) {
    bool unsafe = false;
    for (ZoneType t : kAllZoneTypes) unsafe |= !net.safety().is_safe(u, t);
    svg.circle(g.position(u), 0.9, unsafe ? "#e67e22" : "#7f8c8d");
  }
  const std::string& path = flags.positional().front();
  if (!svg.write_file(path)) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("wrote %s (%zu elements)\n", path.c_str(), svg.element_count());
  return 0;
}

void usage() {
  std::fputs(
      "usage: spr_cli <info|label|route|sweep|merge|validate|run|render> "
      "[flags...]\n"
      "run 'spr_cli <command> --help' for per-command flags\n",
      stderr);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 1;
  }
  std::string command = argv[1];
  // Shift argv so each command parses its own flags.
  int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  if (command == "info") return cmd_info(sub_argc, sub_argv);
  if (command == "label") return cmd_label(sub_argc, sub_argv);
  if (command == "route") return cmd_route(sub_argc, sub_argv);
  if (command == "sweep") return cmd_sweep(sub_argc, sub_argv);
  if (command == "merge") return cmd_merge(sub_argc, sub_argv);
  if (command == "validate") return cmd_validate(sub_argc, sub_argv);
  if (command == "run") return cmd_run(sub_argc, sub_argv);
  if (command == "render") return cmd_render(sub_argc, sub_argv);
  usage();
  return 1;
}
