/// \file report_serialize_test.cpp
/// Exact JSON round-trip of the sweep result model (Summary,
/// RouteAggregate, CellResult, SweepTimings, shard files), the literal
/// report stats forms, and the acceptance check behind distributed sweeps:
/// merging N single-cell shard JSONs reproduces the in-process run_sweep
/// aggregates bit-identically.

#include "report/serialize.h"

#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <string_view>
#include <utility>

#include "deploy/rng.h"

namespace spr {
namespace {

/// Serializes with to_json, parses the text, deserializes with from_json.
template <typename T>
T round_trip(const T& value) {
  const std::string text = to_json(value).dump();
  JsonValue parsed;
  std::string error;
  EXPECT_TRUE(JsonValue::parse(text, parsed, &error)) << error;
  T out;
  EXPECT_TRUE(from_json(parsed, out)) << text;
  return out;
}

Summary sample_summary() {
  Summary s;
  for (double v : {3.0, 1.0 / 3.0, 7.25, -2.5, 1e-12, 123456.789}) s.add(v);
  return s;
}

TEST(Serialize, SummaryRoundTripIsBitExact) {
  Summary original = sample_summary();
  Summary copy = round_trip(original);
  EXPECT_EQ(copy, original);
  // The reconstructed accumulator merges exactly like the original.
  Summary merged_a, merged_b;
  merged_a.merge(original);
  merged_a.merge(copy);
  merged_b.merge(copy);
  merged_b.merge(original);
  EXPECT_EQ(merged_a, merged_b);
}

TEST(Serialize, EmptySummaryRoundTrips) {
  Summary empty;
  Summary copy = round_trip(empty);
  EXPECT_TRUE(copy.empty());
  EXPECT_EQ(copy, empty);
}

TEST(Serialize, SummaryRejectsMalformed) {
  Summary out;
  JsonValue v;
  ASSERT_TRUE(JsonValue::parse(R"({"values":[1,"two"]})", v));
  EXPECT_FALSE(from_json(v, out));
  ASSERT_TRUE(JsonValue::parse(R"({"values":7})", v));
  EXPECT_FALSE(from_json(v, out));
  ASSERT_TRUE(JsonValue::parse(R"({})", v));
  EXPECT_FALSE(from_json(v, out));
  ASSERT_TRUE(JsonValue::parse(R"({"values":[null]})", v));
  EXPECT_FALSE(from_json(v, out));
}

TEST(Serialize, DoublesRejectNonFiniteValues) {
  // 1e999 parses as inf, which to_json writes back as null: accepting it
  // would read a file that no writer can produce again.
  Summary out;
  JsonValue v;
  ASSERT_TRUE(JsonValue::parse(R"({"values":[1e999,2]})", v));
  EXPECT_FALSE(from_json(v, out));
  ASSERT_TRUE(JsonValue::parse(R"({"values":[-1e999]})", v));
  EXPECT_FALSE(from_json(v, out));
  // The built value is read as strictly as its text.
  Summary inf_sample;
  inf_sample.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(to_json(inf_sample).dump(), R"({"values":[null]})");
  EXPECT_FALSE(from_json(to_json(inf_sample), out));
  SweepTimings t;
  t.oracle_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(from_json(to_json(t), t));
}

RouteAggregate sample_aggregate(std::uint64_t seed) {
  RouteAggregate agg;
  agg.requested = 10 + seed % 3;
  agg.attempted = 9;
  agg.delivered = 8;
  for (int i = 0; i < 6; ++i) {
    double x = static_cast<double>((seed + 1) * (i + 1));
    agg.hops.add(x);
    agg.length.add(x * 17.5);
    agg.stretch_hops.add(1.0 + x / 100.0);
    agg.stretch_length.add(1.0 + x / 300.0);
    agg.perimeter_hops.add(static_cast<double>(i % 2));
    agg.backup_hops.add(static_cast<double>(i % 3));
    agg.local_minima.add(static_cast<double>(i));
  }
  return agg;
}

TEST(Serialize, RouteAggregateRoundTrip) {
  RouteAggregate original = sample_aggregate(5);
  EXPECT_EQ(round_trip(original), original);
}

TEST(Serialize, CellResultRoundTrip) {
  CellResult cell;
  cell.emplace("GF", sample_aggregate(1));
  cell.emplace("SLGF2", sample_aggregate(2));
  CellResult cell_copy = round_trip(cell);
  ASSERT_EQ(cell_copy.size(), 2u);
  EXPECT_EQ(cell_copy, cell);
}

TEST(Serialize, SweepTimingsRoundTrip) {
  SweepTimings t;
  t.construction_seconds = 1.25;
  t.pair_draw_seconds = 0.5;
  t.oracle_seconds = 2.0 / 3.0;
  t.routing_seconds = 0.125;
  t.bfs_searches = 123;
  t.dijkstra_searches = 456;
  t.pairs_requested = 1000;
  t.pairs_routed = 990;
  SweepTimings copy = round_trip(t);
  EXPECT_EQ(copy.construction_seconds, t.construction_seconds);
  EXPECT_EQ(copy.oracle_seconds, t.oracle_seconds);
  EXPECT_EQ(copy.bfs_searches, t.bfs_searches);
  EXPECT_EQ(copy.pairs_routed, t.pairs_routed);
  EXPECT_EQ(copy, t);
}

// ------------------------------------------------------- wire-format pins
// Every persisted record, every field set to a non-default value, against
// its exact wire-form text. Slice files written by one build must merge in
// another, so the keys, their order and the number formatting are frozen.

/// to_json(value) writes exactly `wire`, and from_json(wire) re-serializes
/// to exactly `wire`.
template <typename T>
void expect_wire(const T& value, const std::string& wire) {
  EXPECT_EQ(to_json(value).dump(), wire);
  JsonValue parsed;
  std::string error;
  ASSERT_TRUE(JsonValue::parse(wire, parsed, &error)) << error;
  T decoded;
  ASSERT_TRUE(from_json(parsed, decoded)) << wire;
  EXPECT_EQ(to_json(decoded).dump(), wire);
}

Summary summary_of(std::initializer_list<double> values) {
  Summary s;
  for (double v : values) s.add(v);
  return s;
}

/// One sample per summary except `hops`; `k` makes the schemes differ.
RouteAggregate pin_aggregate(int k) {
  RouteAggregate agg;
  agg.hops = summary_of({3.0 + k, 5.0});
  agg.length = summary_of({41.5 * k});
  agg.stretch_hops = summary_of({1.25});
  agg.stretch_length = summary_of({1.0 / 3.0});
  agg.perimeter_hops = summary_of({2.0});
  agg.backup_hops = summary_of({1.0 + k});
  agg.local_minima = summary_of({4.0});
  agg.requested = 12;
  agg.attempted = 11;
  agg.delivered = static_cast<std::size_t>(8 + k);
  return agg;
}

/// pin_aggregate(1) and pin_aggregate(2) on the wire.
const char* const kGfWire =
    R"({"requested":12,"attempted":11,"delivered":9,)"
    R"("hops":{"values":[4,5]},"length":{"values":[41.5]},)"
    R"("stretch_hops":{"values":[1.25]},)"
    R"("stretch_length":{"values":[0.33333333333333331]},)"
    R"("perimeter_hops":{"values":[2]},"backup_hops":{"values":[2]},)"
    R"("local_minima":{"values":[4]}})";
const char* const kSlgf2Wire =
    R"({"requested":12,"attempted":11,"delivered":10,)"
    R"("hops":{"values":[5,5]},"length":{"values":[83]},)"
    R"("stretch_hops":{"values":[1.25]},)"
    R"("stretch_length":{"values":[0.33333333333333331]},)"
    R"("perimeter_hops":{"values":[2]},"backup_hops":{"values":[3]},)"
    R"("local_minima":{"values":[4]}})";

CellResult pin_cell() {
  CellResult cell;
  cell.emplace("GF", pin_aggregate(1));
  cell.emplace("SLGF2", pin_aggregate(2));
  return cell;
}

std::string pin_cell_wire() {
  return std::string(R"({"GF":)") + kGfWire + R"(,"SLGF2":)" +
         kSlgf2Wire + "}";
}

IncrementalStats pin_relabel() {
  IncrementalStats stats;
  stats.seeds = 1;
  stats.reevaluations = 2;
  stats.flips = 3;
  stats.promotions = 4;
  stats.anchor_recomputes = 5;
  stats.arena_high_water = 4096;
  return stats;
}

WaveRecord pin_wave() {
  WaveRecord record;
  record.time = 2.5;
  record.casualties = 6;
  record.packets_in_flight = 3;
  record.packets_dropped = 1;
  record.relabel = pin_relabel();
  record.verified = true;
  record.matches_full_recompute = true;
  return record;
}

RepinRecord pin_repin() {
  RepinRecord record;
  record.time = 7.75;
  record.moved = 40;
  record.edges_added = 12;
  record.edges_removed = 9;
  record.packets_in_flight = 2;
  record.packets_dropped = 1;
  record.relabel = pin_relabel();
  record.verified = true;
  record.matches_full_recompute = true;
  return record;
}

StreamSchemeStats pin_scheme() {
  StreamSchemeStats stats;
  stats.label = "SLGF2";
  stats.injected = 6;
  stats.delivered = 5;
  stats.dead_end = 1;
  stats.ttl_expired = 2;
  stats.node_failed = 3;
  stats.hops = summary_of({9.0, -0.0});
  stats.length = summary_of({120.5});
  stats.stretch_hops = summary_of({1.5});
  stats.latency = summary_of({4.75});
  stats.replans = summary_of({1.0});
  stats.local_minima = summary_of({2.0});
  return stats;
}

TEST(Serialize, WirePinSummary) {
  expect_wire(summary_of({1.0 / 3.0, -2.5, -0.0, 1e-300, 123456.789}),
              R"({"values":[0.33333333333333331,-2.5,-0,1e-300,123456.789]})");
}

TEST(Serialize, WirePinRouteAggregate) {
  expect_wire(pin_aggregate(1), kGfWire);
}

TEST(Serialize, WirePinCellResult) {
  expect_wire(pin_cell(), pin_cell_wire());
}

TEST(Serialize, WirePinSweepTimings) {
  SweepTimings t;
  t.construction_seconds = 1.5;
  t.pair_draw_seconds = 0.25;
  t.oracle_seconds = 1.0 / 3.0;
  t.routing_seconds = 0.125;
  t.bfs_searches = 7;
  t.dijkstra_searches = 8;
  t.pairs_requested = 40;
  t.pairs_routed = 39;
  expect_wire(t, R"({"construction_seconds":1.5,"pair_draw_seconds":0.25,)"
                 R"("oracle_seconds":0.33333333333333331,)"
                 R"("routing_seconds":0.125,"oracle_bfs_searches":7,)"
                 R"("oracle_dijkstra_searches":8,"pairs_requested":40,)"
                 R"("pairs_routed":39})");
}

TEST(Serialize, WirePinSweepSlice) {
  SweepSlice slice;
  slice.model_tag = "FA";
  slice.node_counts = {400, 450};
  slice.networks_per_point = 2;
  slice.pairs_per_network = 3;
  slice.base_seed = UINT64_MAX;
  slice.scheme_labels = {"GF", "SLGF2"};
  slice.slice_index = 1;
  slice.slice_count = 2;
  slice.cells.push_back({400, 1, pin_cell()});
  slice.cells.push_back({450, 0, pin_cell()});
  expect_wire(slice,
              R"({"spr_shard":1,"model":"FA","node_counts":[400,450],)"
              R"("networks_per_point":2,"pairs_per_network":3,)"
              R"("base_seed":18446744073709551615,"schemes":["GF","SLGF2"],)"
              R"("shard_index":1,"shard_count":2,"cells":[)"
              R"({"node_count":400,"net_index":1,"results":)" +
                  pin_cell_wire() +
                  R"(},{"node_count":450,"net_index":0,"results":)" +
                  pin_cell_wire() + "}]}");
}

// ------------------------------------------------------- stats-form pins
// The report shapes, pinned literally: every key, its order, the derived
// values (pair_shortfall, delivery_ratio) and the number formatting.

TEST(Serialize, StatsPinSweepSection) {
  SweepSection section;
  section.model = DeployModel::kForbiddenAreas;
  section.networks_per_point = 2;
  section.pairs_per_network = 12;
  section.base_seed = 41;
  section.threads = 3;
  section.wall_seconds = 0.75;
  SweepPoint point;
  point.node_count = 450;
  point.by_scheme = pin_cell();
  // A -0 sample, 1/3, an empty Summary; both schemes fall one pair short.
  point.by_scheme.at("GF").local_minima = summary_of({-0.0, 1.0 / 3.0});
  point.by_scheme.at("SLGF2").backup_hops = Summary{};
  section.points.push_back(point);
  EXPECT_EQ(sweep_section_to_json(section).dump(),
      R"({"model":"FA","networks_per_point":2,"pairs_per_network":12,)"
      R"("base_seed":41,"threads":3,"wall_seconds":0.75,)"
      R"("points":[{"nodes":450,"schemes":{"GF":{"requested":12,)"
      R"("attempted":11,"pair_shortfall":1,"delivered":9,)"
      R"("delivery_ratio":0.81818181818181823,"hops":{"count":2,"mean":4.5,)"
      R"("min":4,"max":5,"stddev":0.70710678118654757},"length":{"count":1,)"
      R"("mean":41.5,"min":41.5,"max":41.5,"stddev":0},)"
      R"("stretch_hops":{"count":1,"mean":1.25,"min":1.25,"max":1.25,)"
      R"("stddev":0},"stretch_length":{"count":1,)"
      R"("mean":0.33333333333333331,"min":0.33333333333333331,)"
      R"("max":0.33333333333333331,"stddev":0},"perimeter_hops":{"count":1,)"
      R"("mean":2,"min":2,"max":2,"stddev":0},"backup_hops":{"count":1,)"
      R"("mean":2,"min":2,"max":2,"stddev":0},"local_minima":{"count":2,)"
      R"("mean":0.16666666666666666,"min":-0,"max":0.33333333333333331,)"
      R"("stddev":0.23570226039551584}},"SLGF2":{"requested":12,)"
      R"("attempted":11,"pair_shortfall":1,"delivered":10,)"
      R"("delivery_ratio":0.90909090909090906,"hops":{"count":2,"mean":5,)"
      R"("min":5,"max":5,"stddev":0},"length":{"count":1,"mean":83,)"
      R"("min":83,"max":83,"stddev":0},"stretch_hops":{"count":1,)"
      R"("mean":1.25,"min":1.25,"max":1.25,"stddev":0},)"
      R"("stretch_length":{"count":1,"mean":0.33333333333333331,)"
      R"("min":0.33333333333333331,"max":0.33333333333333331,"stddev":0},)"
      R"("perimeter_hops":{"count":1,"mean":2,"min":2,"max":2,"stddev":0},)"
      R"("backup_hops":{"count":0,"mean":0,"min":0,"max":0,"stddev":0},)"
      R"("local_minima":{"count":1,"mean":4,"min":4,"max":4,)"
      R"("stddev":0}}}}]})");
}

TEST(Serialize, StatsPinStreamStats) {
  StreamStats stats;
  stats.virtual_time = 12.5;
  stats.events = 345;
  stats.repins = 1;
  // An unverified wave writes no matches_full_recompute; a verified re-pin
  // does.
  stats.waves.push_back(pin_wave());
  stats.waves.back().verified = false;
  stats.repin_records.push_back(pin_repin());
  stats.schemes.push_back(pin_scheme());
  EXPECT_EQ(stream_stats_json(stats).dump(),
      R"({"virtual_time":12.5,"events":345,"repins":1,"waves":[{"time":2.5,)"
      R"("casualties":6,"packets_in_flight":3,"packets_dropped":1,)"
      R"("relabel_seeds":1,"relabel_reevaluations":2,"relabel_flips":3}],)"
      R"("repin_records":[{"time":7.75,"moved":40,"edges_added":12,)"
      R"("edges_removed":9,"packets_in_flight":2,"packets_dropped":1,)"
      R"("relabel_seeds":1,"relabel_reevaluations":2,"relabel_demotions":3,)"
      R"("relabel_promotions":4,"matches_full_recompute":true}],)"
      R"("schemes":{"SLGF2":{"injected":6,"delivered":5,"dead_end":1,)"
      R"("ttl_expired":2,"node_failed":3,)"
      R"("delivery_ratio":0.83333333333333337,"hops":{"count":2,"mean":4.5,)"
      R"("min":-0,"max":9,"stddev":6.3639610306789276},"length":{"count":1,)"
      R"("mean":120.5,"min":120.5,"max":120.5,"stddev":0},)"
      R"("stretch_hops":{"count":1,"mean":1.5,"min":1.5,"max":1.5,)"
      R"("stddev":0},"latency":{"count":1,"mean":4.75,"min":4.75,)"
      R"("max":4.75,"stddev":0},"replans":{"count":1,"mean":1,"min":1,)"
      R"("max":1,"stddev":0},"local_minima":{"count":1,"mean":2,"min":2,)"
      R"("max":2,"stddev":0}}}})");
}

SweepConfig small_sweep_config() {
  SweepConfig config;
  config.node_counts = {400, 500};
  config.networks_per_point = 3;
  config.pairs_per_network = 2;
  config.base_seed = 77;
  config.threads = 1;
  config.schemes = SweepConfig::paper_schemes();
  return config;
}

TEST(Shards, SingleCellShardsMergeBitIdenticallyToRunSweep) {
  SweepConfig config = small_sweep_config();
  auto in_process = run_sweep(config);

  // One shard per cell (shard i of N where N = total cells), each
  // round-tripped through its JSON text — the full scp-and-merge workflow.
  int total_cells = static_cast<int>(config.node_counts.size()) *
                    config.networks_per_point;
  std::vector<SweepSlice> shards;
  for (int i = 0; i < total_cells; ++i) {
    auto cells = run_sweep_slice(config, i, total_cells);
    ASSERT_EQ(cells.size(), 1u) << i;
    SweepSlice shard = make_slice(config, i, total_cells, std::move(cells));
    JsonValue parsed;
    std::string error;
    ASSERT_TRUE(JsonValue::parse(to_json(shard).dump(), parsed, &error))
        << error;
    SweepSlice decoded;
    ASSERT_TRUE(from_json(parsed, decoded));
    EXPECT_EQ(decoded, shard);
    shards.push_back(std::move(decoded));
  }

  std::vector<SweepPoint> merged;
  std::string error;
  ASSERT_TRUE(merge_slices(std::move(shards), merged, &error)) << error;
  EXPECT_EQ(merged, in_process);
}

TEST(Shards, UnevenShardingAlsoMergesIdentically) {
  SweepConfig config = small_sweep_config();
  auto in_process = run_sweep(config);
  std::vector<SweepSlice> shards;
  for (int i = 0; i < 4; ++i) {  // 6 cells over 4 shards: sizes 2,2,1,1
    shards.push_back(
        make_slice(config, i, 4, run_sweep_slice(config, i, 4)));
  }
  std::vector<SweepPoint> merged;
  ASSERT_TRUE(merge_slices(std::move(shards), merged, nullptr));
  EXPECT_EQ(merged, in_process);
}

TEST(Shards, MergeRejectsBadInput) {
  SweepConfig config = small_sweep_config();
  auto make = [&](int i, int n) {
    return make_slice(config, i, n, run_sweep_slice(config, i, n));
  };
  std::string error;
  std::vector<SweepPoint> points;

  // Empty input.
  EXPECT_FALSE(merge_slices({}, points, &error));

  // Missing cells.
  EXPECT_FALSE(merge_slices({make(0, 2)}, points, &error));
  EXPECT_NE(error.find("incomplete"), std::string::npos);

  // Duplicate cells.
  EXPECT_FALSE(merge_slices({make(0, 2), make(0, 2), make(1, 2)}, points,
                            &error));
  EXPECT_NE(error.find("duplicate"), std::string::npos);

  // Config mismatch.
  SweepConfig other = config;
  other.base_seed = 78;
  std::vector<SweepSlice> mixed;
  mixed.push_back(make(0, 2));
  mixed.push_back(make_slice(other, 1, 2, run_sweep_slice(other, 1, 2)));
  EXPECT_FALSE(merge_slices(std::move(mixed), points, &error));
  EXPECT_NE(error.find("different sweep"), std::string::npos);

  // A cell stripped of one scheme's results (truncated/hand-edited shard)
  // must be rejected, not silently merged into wrong aggregates.
  std::vector<SweepSlice> stripped{make(0, 2), make(1, 2)};
  ASSERT_FALSE(stripped[0].cells.empty());
  stripped[0].cells[0].result.erase("GF");
  EXPECT_FALSE(merge_slices(std::move(stripped), points, &error));
  EXPECT_NE(error.find("scheme results"), std::string::npos);

  // Same size but a swapped-in foreign label is rejected too.
  std::vector<SweepSlice> swapped{make(0, 2), make(1, 2)};
  ASSERT_FALSE(swapped[0].cells.empty());
  swapped[0].cells[0].result.erase("GF");
  swapped[0].cells[0].result.emplace("BOGUS", RouteAggregate{});
  EXPECT_FALSE(merge_slices(std::move(swapped), points, &error));
  EXPECT_NE(error.find("missing scheme"), std::string::npos);
}

TEST(Serialize, IntegerFieldsRejectFractionalNumbers) {
  // A corrupted shard with "net_index": 1.7 must not silently truncate
  // into a different cell coordinate.
  SweepTimings t;
  JsonValue v;
  ASSERT_TRUE(JsonValue::parse(
      R"({"construction_seconds":0,"pair_draw_seconds":0,)"
      R"("oracle_seconds":0,"routing_seconds":0,"oracle_bfs_searches":1.5,)"
      R"("oracle_dijkstra_searches":1,"pairs_requested":1,"pairs_routed":1})",
      v));
  EXPECT_FALSE(from_json(v, t));
  // Nor may a negative count read as 0.
  v.set("oracle_bfs_searches", JsonValue::of(1));
  ASSERT_TRUE(from_json(v, t));
  v.set("pairs_requested", JsonValue::of(-1));
  EXPECT_FALSE(from_json(v, t));
  RouteAggregate agg;
  ASSERT_TRUE(JsonValue::parse(kGfWire, v));
  v.set("requested", JsonValue::of(-5));
  EXPECT_FALSE(from_json(v, agg));

  // The case above, in a slice file: a cell at net_index 1.7.
  SweepSlice slice = make_slice(small_sweep_config(), 1, 2, {});
  slice.cells.push_back({400, 1, pin_cell()});
  std::string text = to_json(slice).dump();
  ASSERT_TRUE(JsonValue::parse(text, v));
  ASSERT_TRUE(from_json(v, slice));
  const std::string index = R"("net_index":1,)";
  ASSERT_NE(text.find(index), std::string::npos);
  text.replace(text.find(index), index.size(), R"("net_index":1.7,)");
  ASSERT_TRUE(JsonValue::parse(text, v));
  EXPECT_FALSE(from_json(v, slice));
}

TEST(Shards, ShardFileRejectsForeignJson) {
  SweepSlice shard;
  JsonValue v;
  ASSERT_TRUE(JsonValue::parse(R"({"scenario":"fig6-avg-hops"})", v));
  EXPECT_FALSE(from_json(v, shard));
  ASSERT_TRUE(JsonValue::parse(R"({"spr_shard":99})", v));
  EXPECT_FALSE(from_json(v, shard));
  ASSERT_TRUE(JsonValue::parse("[1,2,3]", v));
  EXPECT_FALSE(from_json(v, shard));

  // A well-formed slice whose header is out of range: the version must be
  // this build's, the slice index must lie in [0, shard_count), and the
  // seed and counts carry no sign.
  const JsonValue valid = to_json(make_slice(small_sweep_config(), 1, 2, {}));
  ASSERT_TRUE(from_json(valid, shard));
  const std::pair<const char*, std::int64_t> corruptions[] = {
      {"spr_shard", 2},    {"spr_shard", 0},    {"shard_count", 0},
      {"shard_index", -3}, {"shard_index", 2},  {"base_seed", -77},
  };
  for (const auto& [key, value] : corruptions) {
    v = valid;
    v.set(key, JsonValue::of(value));
    EXPECT_FALSE(from_json(v, shard)) << key << " = " << value;
  }
  v = valid;
  v.set("shard_count", JsonValue::of(0));
  v.set("shard_index", JsonValue::of(-3));
  EXPECT_FALSE(from_json(v, shard));
  v = valid;
  v.set("node_counts", JsonValue::array().push(JsonValue::of(-400)));
  EXPECT_FALSE(from_json(v, shard));
}

/// Seeded single-byte mutations of a real slice file: delete a byte,
/// duplicate it, or overwrite it with a structural or numeric one. Parsing,
/// reading and merging a mutant may fail but never abort (the suite runs
/// under ASan/UBSan in CI), and a slice the reader accepts writes back to
/// text that reads as the same slice.
TEST(Shards, MutatedSliceFilesNeverAbort) {
  SweepConfig config = small_sweep_config();
  config.node_counts = {400};
  config.networks_per_point = 2;
  const std::string text =
      to_json(make_slice(config, 0, 2, run_sweep_slice(config, 0, 2))).dump();
  const SweepSlice sibling =
      make_slice(config, 1, 2, run_sweep_slice(config, 1, 2));
  constexpr std::string_view kBytes = "{}[]\":,-.e09";
  Rng rng(0x5eed);
  int accepted = 0;
  int merged = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutant = text;
    const std::size_t at = rng.next_below(mutant.size());
    switch (rng.next_below(3)) {
      case 0: mutant.erase(at, 1); break;
      case 1: mutant.insert(at, 1, mutant[at]); break;
      default: mutant[at] = kBytes[rng.next_below(kBytes.size())];
    }
    JsonValue parsed;
    SweepSlice slice;
    if (!JsonValue::parse(mutant, parsed) || !from_json(parsed, slice)) {
      continue;
    }
    ++accepted;
    JsonValue again;
    SweepSlice reread;
    ASSERT_TRUE(JsonValue::parse(to_json(slice).dump(), again))
        << "mutant " << i << " at byte " << at;
    ASSERT_TRUE(from_json(again, reread)) << "mutant " << i << " at " << at;
    EXPECT_EQ(reread, slice) << "mutant " << i << " at byte " << at;
    std::vector<SweepPoint> points;
    if (merge_slices({slice, sibling}, points)) ++merged;
  }
  // Mutants inside sample digits still read and merge.
  EXPECT_GT(accepted, 0);
  EXPECT_GT(merged, 0);
}

TEST(Shards, RunSweepSlicePartitionsTheCells) {
  SweepConfig config = small_sweep_config();
  std::set<std::pair<int, int>> seen;
  std::size_t total = 0;
  for (int i = 0; i < 3; ++i) {
    for (const auto& cell : run_sweep_slice(config, i, 3)) {
      EXPECT_TRUE(seen.emplace(cell.node_count, cell.net_index).second);
      ++total;
    }
  }
  EXPECT_EQ(total, config.node_counts.size() *
                       static_cast<std::size_t>(config.networks_per_point));
  // Degenerate shard specs yield nothing rather than UB.
  EXPECT_TRUE(run_sweep_slice(config, 3, 3).empty());
  EXPECT_TRUE(run_sweep_slice(config, -1, 3).empty());
  EXPECT_TRUE(run_sweep_slice(config, 0, 0).empty());
}

}  // namespace
}  // namespace spr
