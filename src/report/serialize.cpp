#include "report/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>

namespace spr {

// ------------------------------------------------------------ stats form

JsonValue summary_stats(const Summary& s) {
  JsonValue v = JsonValue::object();
  v.set("count", JsonValue::of(static_cast<std::uint64_t>(s.count())));
  v.set("mean", JsonValue::of(s.mean()));
  v.set("min", JsonValue::of(s.min()));
  v.set("max", JsonValue::of(s.max()));
  v.set("stddev", JsonValue::of(s.stddev()));
  return v;
}

namespace {

JsonValue uint_of(std::size_t n) {
  return JsonValue::of(static_cast<std::uint64_t>(n));
}

/// The per-aggregate report shape (delivery ratio + stats summaries).
JsonValue aggregate_stats_to_json(const RouteAggregate& agg) {
  JsonValue v = JsonValue::object();
  v.set("requested", uint_of(agg.requested));
  v.set("attempted", uint_of(agg.attempted));
  v.set("pair_shortfall", uint_of(agg.pair_shortfall()));
  v.set("delivered", uint_of(agg.delivered));
  v.set("delivery_ratio", JsonValue::of(agg.delivery_ratio()));
  v.set("hops", summary_stats(agg.hops));
  v.set("length", summary_stats(agg.length));
  v.set("stretch_hops", summary_stats(agg.stretch_hops));
  v.set("stretch_length", summary_stats(agg.stretch_length));
  v.set("perimeter_hops", summary_stats(agg.perimeter_hops));
  v.set("backup_hops", summary_stats(agg.backup_hops));
  v.set("local_minima", summary_stats(agg.local_minima));
  return v;
}

}  // namespace

JsonValue sweep_section_to_json(const SweepSection& section) {
  JsonValue points = JsonValue::array();
  for (const auto& point : section.points) {
    JsonValue schemes = JsonValue::object();
    for (const auto& [label, agg] : point.by_scheme) {
      schemes.set(label, aggregate_stats_to_json(agg));
    }
    JsonValue entry = JsonValue::object();
    entry.set("nodes", JsonValue::of(point.node_count));
    entry.set("schemes", std::move(schemes));
    points.push(std::move(entry));
  }
  JsonValue v = JsonValue::object();
  v.set("model", JsonValue::of(deploy_model_tag(section.model)));
  v.set("networks_per_point", JsonValue::of(section.networks_per_point));
  v.set("pairs_per_network", JsonValue::of(section.pairs_per_network));
  v.set("base_seed", JsonValue::of(section.base_seed));
  v.set("threads", JsonValue::of(section.threads));
  v.set("wall_seconds", JsonValue::of(section.wall_seconds));
  v.set("points", std::move(points));
  return v;
}

JsonValue stream_stats_json(const StreamStats& stats) {
  JsonValue root = JsonValue::object();
  root.set("virtual_time", JsonValue::of(stats.virtual_time));
  root.set("events", uint_of(stats.events));
  root.set("repins", uint_of(stats.repins));
  JsonValue waves = JsonValue::array();
  for (const WaveRecord& record : stats.waves) {
    JsonValue wave = JsonValue::object();
    wave.set("time", JsonValue::of(record.time));
    wave.set("casualties", uint_of(record.casualties));
    wave.set("packets_in_flight", uint_of(record.packets_in_flight));
    wave.set("packets_dropped", uint_of(record.packets_dropped));
    wave.set("relabel_seeds", uint_of(record.relabel.seeds));
    wave.set("relabel_reevaluations", uint_of(record.relabel.reevaluations));
    wave.set("relabel_flips", uint_of(record.relabel.flips));
    if (record.verified) {
      wave.set("matches_full_recompute",
               JsonValue::of(record.matches_full_recompute));
    }
    waves.push(std::move(wave));
  }
  root.set("waves", std::move(waves));
  JsonValue repins = JsonValue::array();
  for (const RepinRecord& record : stats.repin_records) {
    JsonValue repin = JsonValue::object();
    repin.set("time", JsonValue::of(record.time));
    repin.set("moved", uint_of(record.moved));
    repin.set("edges_added", uint_of(record.edges_added));
    repin.set("edges_removed", uint_of(record.edges_removed));
    repin.set("packets_in_flight", uint_of(record.packets_in_flight));
    repin.set("packets_dropped", uint_of(record.packets_dropped));
    repin.set("relabel_seeds", uint_of(record.relabel.seeds));
    repin.set("relabel_reevaluations", uint_of(record.relabel.reevaluations));
    repin.set("relabel_demotions", uint_of(record.relabel.flips));
    repin.set("relabel_promotions", uint_of(record.relabel.promotions));
    if (record.verified) {
      repin.set("matches_full_recompute",
                JsonValue::of(record.matches_full_recompute));
    }
    repins.push(std::move(repin));
  }
  root.set("repin_records", std::move(repins));
  JsonValue schemes = JsonValue::object();
  for (const StreamSchemeStats& s : stats.schemes) {
    JsonValue scheme = JsonValue::object();
    scheme.set("injected", uint_of(s.injected));
    scheme.set("delivered", uint_of(s.delivered));
    scheme.set("dead_end", uint_of(s.dead_end));
    scheme.set("ttl_expired", uint_of(s.ttl_expired));
    scheme.set("node_failed", uint_of(s.node_failed));
    scheme.set("delivery_ratio", JsonValue::of(s.delivery_ratio()));
    scheme.set("hops", summary_stats(s.hops));
    scheme.set("length", summary_stats(s.length));
    scheme.set("stretch_hops", summary_stats(s.stretch_hops));
    scheme.set("latency", summary_stats(s.latency));
    scheme.set("replans", summary_stats(s.replans));
    scheme.set("local_minima", summary_stats(s.local_minima));
    schemes.set(s.label, std::move(scheme));
  }
  root.set("schemes", std::move(schemes));
  return root;
}

// ------------------------------------------------------------- full form

namespace {

/// T's field list: `fields`, its persisted members in wire order, and
/// optionally `valid`, what the member types cannot check. Specialized
/// below for every persisted record.
template <typename T>
struct Record;

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
constexpr bool kIsLabelMap = false;
template <typename T>
constexpr bool kIsLabelMap<std::map<std::string, T>> = true;

/// The one builder. A Summary is {"values": [...]}, a vector an array, a
/// label-keyed map an object, a record an object in field-list order.
template <typename T>
JsonValue to_value(const T& value) {
  if constexpr (std::is_same_v<T, Summary>) {
    JsonValue v = JsonValue::object();
    v.set("values", to_value(value.values()));
    return v;
  } else if constexpr (kIsVector<T>) {
    JsonValue items = JsonValue::array(value.size());
    for (const auto& item : value) items.push(to_value(item));
    return items;
  } else if constexpr (kIsLabelMap<T>) {
    JsonValue items = JsonValue::object();
    for (const auto& [label, item] : value) items.set(label, to_value(item));
    return items;
  } else if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, int> ||
                       std::is_same_v<T, double> ||
                       std::is_same_v<T, std::string>) {
    return JsonValue::of(value);
  } else if constexpr (std::is_unsigned_v<T>) {
    return JsonValue::of(static_cast<std::uint64_t>(value));
  } else {
    JsonValue record = JsonValue::object();
    std::apply([&](const auto&... field) { (field.write(record, value), ...); },
               Record<T>::fields);
    return record;
  }
}

/// The one reader, the builder's inverse. Integers must be integral tokens
/// that fit the member (no sign for counts), doubles finite numbers (the
/// builder writes a non-finite one as null), labels must be unique and
/// every required member present; unknown members are ignored. Writes
/// `out` only on success.
template <typename T>
bool read_value(const JsonValue& v, T& out) {
  if constexpr (std::is_same_v<T, Summary>) {
    std::vector<double> values;
    if (!read_value(v.get("values"), values)) return false;
    Summary s;
    for (double value : values) s.add(value);
    out = std::move(s);
  } else if constexpr (kIsVector<T>) {
    if (!v.is_array()) return false;
    T items;
    for (const JsonValue& item : v.items()) {
      if (!read_value(item, items.emplace_back())) return false;
    }
    out = std::move(items);
  } else if constexpr (kIsLabelMap<T>) {
    if (!v.is_object()) return false;
    T items;
    for (const auto& [label, item] : v.members()) {
      typename T::mapped_type value;
      if (!read_value(item, value) ||
          !items.emplace(label, std::move(value)).second) {
        return false;
      }
    }
    out = std::move(items);
  } else if constexpr (std::is_same_v<T, bool>) {
    if (!v.is_bool()) return false;
    out = v.as_bool();
  } else if constexpr (std::is_same_v<T, int>) {
    const std::int64_t i = v.as_int64(INT64_MIN);
    if (!v.is_integer() || !std::in_range<int>(i)) return false;
    out = static_cast<int>(i);
  } else if constexpr (std::is_unsigned_v<T>) {
    // as_uint64() reads a negative integer as 0, so check the sign first.
    if (!v.is_integer() || v.as_int64(0) < 0 ||
        !std::in_range<T>(v.as_uint64())) {
      return false;
    }
    out = static_cast<T>(v.as_uint64());
  } else if constexpr (std::is_same_v<T, double>) {
    if (!v.is_number() || !std::isfinite(v.as_double())) return false;
    out = v.as_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (!v.is_string()) return false;
    out = v.as_string();
  } else {
    if (!v.is_object()) return false;
    T record;
    if (!std::apply(
            [&](const auto&... field) { return (field.read(v, record) && ...); },
            Record<T>::fields)) {
      return false;
    }
    if constexpr (requires { Record<T>::valid(record); }) {
      if (!Record<T>::valid(record)) return false;
    }
    out = std::move(record);
  }
  return true;
}

/// One persisted member: its wire key and where it lives in T. Only a
/// member older artifacts lack is not `required`; when present it is read
/// as strictly as any other.
template <typename T, typename M>
struct Field {
  const char* key;
  M T::*member;
  bool required;

  void write(JsonValue& out, const T& record) const {
    out.set(key, to_value(record.*member));
  }
  bool read(const JsonValue& v, T& record) const {
    const JsonValue* m = v.find(key);
    return m == nullptr ? !required : read_value(*m, record.*member);
  }
};

template <typename T, typename M>
constexpr Field<T, M> field(const char* key, M T::*member) {
  return {key, member, true};
}

template <typename T, typename M>
constexpr Field<T, M> optional_field(const char* key, M T::*member) {
  return {key, member, false};
}

/// A member with one accepted value, a format version: written as is and
/// read back only when equal.
struct Constant {
  const char* key;
  int value;

  template <typename T>
  void write(JsonValue& out, const T& /*record*/) const {
    out.set(key, JsonValue::of(value));
  }
  template <typename T>
  bool read(const JsonValue& v, T& /*record*/) const {
    int found = 0;
    return read_value(v.get(key), found) && found == value;
  }
};

constexpr int kShardFormatVersion = 1;

template <>
struct Record<RouteAggregate> {
  static constexpr auto fields = std::tuple{
      field("requested", &RouteAggregate::requested),
      field("attempted", &RouteAggregate::attempted),
      field("delivered", &RouteAggregate::delivered),
      field("hops", &RouteAggregate::hops),
      field("length", &RouteAggregate::length),
      field("stretch_hops", &RouteAggregate::stretch_hops),
      field("stretch_length", &RouteAggregate::stretch_length),
      field("perimeter_hops", &RouteAggregate::perimeter_hops),
      field("backup_hops", &RouteAggregate::backup_hops),
      field("local_minima", &RouteAggregate::local_minima),
  };
};

template <>
struct Record<SweepPoint> {
  static constexpr auto fields = std::tuple{
      field("nodes", &SweepPoint::node_count),
      field("schemes", &SweepPoint::by_scheme),
  };
};

template <>
struct Record<SweepTimings> {
  static constexpr auto fields = std::tuple{
      field("construction_seconds", &SweepTimings::construction_seconds),
      field("pair_draw_seconds", &SweepTimings::pair_draw_seconds),
      field("oracle_seconds", &SweepTimings::oracle_seconds),
      field("routing_seconds", &SweepTimings::routing_seconds),
      field("oracle_bfs_searches", &SweepTimings::bfs_searches),
      field("oracle_dijkstra_searches", &SweepTimings::dijkstra_searches),
      field("pairs_requested", &SweepTimings::pairs_requested),
      field("pairs_routed", &SweepTimings::pairs_routed),
  };
};

template <>
struct Record<IncrementalStats> {
  static constexpr auto fields = std::tuple{
      field("seeds", &IncrementalStats::seeds),
      field("reevaluations", &IncrementalStats::reevaluations),
      field("flips", &IncrementalStats::flips),
      field("promotions", &IncrementalStats::promotions),
      field("anchor_recomputes", &IncrementalStats::anchor_recomputes),
      optional_field("arena_high_water", &IncrementalStats::arena_high_water),
  };
};

template <>
struct Record<WaveRecord> {
  static constexpr auto fields = std::tuple{
      field("time", &WaveRecord::time),
      field("casualties", &WaveRecord::casualties),
      field("packets_in_flight", &WaveRecord::packets_in_flight),
      field("packets_dropped", &WaveRecord::packets_dropped),
      field("relabel", &WaveRecord::relabel),
      field("verified", &WaveRecord::verified),
      field("matches_full_recompute", &WaveRecord::matches_full_recompute),
  };
};

template <>
struct Record<RepinRecord> {
  static constexpr auto fields = std::tuple{
      field("time", &RepinRecord::time),
      field("moved", &RepinRecord::moved),
      field("edges_added", &RepinRecord::edges_added),
      field("edges_removed", &RepinRecord::edges_removed),
      field("packets_in_flight", &RepinRecord::packets_in_flight),
      field("packets_dropped", &RepinRecord::packets_dropped),
      field("relabel", &RepinRecord::relabel),
      field("verified", &RepinRecord::verified),
      field("matches_full_recompute", &RepinRecord::matches_full_recompute),
  };
};

template <>
struct Record<StreamSchemeStats> {
  static constexpr auto fields = std::tuple{
      field("label", &StreamSchemeStats::label),
      field("injected", &StreamSchemeStats::injected),
      field("delivered", &StreamSchemeStats::delivered),
      field("dead_end", &StreamSchemeStats::dead_end),
      field("ttl_expired", &StreamSchemeStats::ttl_expired),
      field("node_failed", &StreamSchemeStats::node_failed),
      field("hops", &StreamSchemeStats::hops),
      field("length", &StreamSchemeStats::length),
      field("stretch_hops", &StreamSchemeStats::stretch_hops),
      field("latency", &StreamSchemeStats::latency),
      field("replans", &StreamSchemeStats::replans),
      field("local_minima", &StreamSchemeStats::local_minima),
  };
};

template <>
struct Record<StreamStats> {
  static constexpr auto fields = std::tuple{
      field("virtual_time", &StreamStats::virtual_time),
      field("events", &StreamStats::events),
      field("repins", &StreamStats::repins),
      field("waves", &StreamStats::waves),
      field("repin_records", &StreamStats::repin_records),
      field("schemes", &StreamStats::schemes),
  };
};

template <>
struct Record<SliceCell> {
  static constexpr auto fields = std::tuple{
      field("node_count", &SliceCell::node_count),
      field("net_index", &SliceCell::net_index),
      field("results", &SliceCell::result),
  };
};

template <>
struct Record<SweepSlice> {
  static constexpr auto fields = std::tuple{
      Constant{"spr_shard", kShardFormatVersion},
      field("model", &SweepSlice::model_tag),
      field("node_counts", &SweepSlice::node_counts),
      field("networks_per_point", &SweepSlice::networks_per_point),
      field("pairs_per_network", &SweepSlice::pairs_per_network),
      field("base_seed", &SweepSlice::base_seed),
      field("schemes", &SweepSlice::scheme_labels),
      field("shard_index", &SweepSlice::slice_index),
      field("shard_count", &SweepSlice::slice_count),
      field("cells", &SweepSlice::cells),
  };

  /// A known model, no negative node count, and a slice index inside its
  /// count (the bounds `spr_cli sweep --slice` enforces when writing).
  static bool valid(const SweepSlice& slice) {
    DeployModel model = DeployModel::kIdeal;
    return deploy_model_from_tag(slice.model_tag, model) &&
           std::ranges::none_of(slice.node_counts,
                                [](int n) { return n < 0; }) &&
           slice.slice_count >= 1 && slice.slice_index >= 0 &&
           slice.slice_index < slice.slice_count;
  }
};

}  // namespace

JsonValue to_json(const Summary& value) { return to_value(value); }
bool from_json(const JsonValue& v, Summary& out) { return read_value(v, out); }
JsonValue to_json(const RouteAggregate& value) { return to_value(value); }
bool from_json(const JsonValue& v, RouteAggregate& out) {
  return read_value(v, out);
}
JsonValue to_json(const SweepPoint& value) { return to_value(value); }
bool from_json(const JsonValue& v, SweepPoint& out) { return read_value(v, out); }
JsonValue to_json(const CellResult& value) { return to_value(value); }
bool from_json(const JsonValue& v, CellResult& out) { return read_value(v, out); }
JsonValue to_json(const SweepTimings& value) { return to_value(value); }
bool from_json(const JsonValue& v, SweepTimings& out) {
  return read_value(v, out);
}
JsonValue to_json(const IncrementalStats& value) { return to_value(value); }
bool from_json(const JsonValue& v, IncrementalStats& out) {
  return read_value(v, out);
}
JsonValue to_json(const WaveRecord& value) { return to_value(value); }
bool from_json(const JsonValue& v, WaveRecord& out) { return read_value(v, out); }
JsonValue to_json(const RepinRecord& value) { return to_value(value); }
bool from_json(const JsonValue& v, RepinRecord& out) {
  return read_value(v, out);
}
JsonValue to_json(const StreamSchemeStats& value) { return to_value(value); }
bool from_json(const JsonValue& v, StreamSchemeStats& out) {
  return read_value(v, out);
}
JsonValue to_json(const StreamStats& value) { return to_value(value); }
bool from_json(const JsonValue& v, StreamStats& out) {
  return read_value(v, out);
}
JsonValue to_json(const SweepSlice& value) { return to_value(value); }
bool from_json(const JsonValue& v, SweepSlice& out) { return read_value(v, out); }

// ------------------------------------------------------------ slice files

SweepSlice make_slice(const SweepConfig& config, int slice_index,
                      int slice_count, std::vector<SliceCell> cells) {
  SweepSlice slice;
  slice.model_tag = deploy_model_tag(config.model);
  slice.node_counts = config.node_counts;
  slice.networks_per_point = config.networks_per_point;
  slice.pairs_per_network = config.pairs_per_network;
  slice.base_seed = config.base_seed;
  for (const auto& spec : config.schemes) {
    slice.scheme_labels.push_back(spec.display_label());
  }
  slice.slice_index = slice_index;
  slice.slice_count = slice_count;
  slice.cells = std::move(cells);
  return slice;
}

namespace {

bool same_sweep(const SweepSlice& a, const SweepSlice& b) {
  return a.model_tag == b.model_tag && a.node_counts == b.node_counts &&
         a.networks_per_point == b.networks_per_point &&
         a.pairs_per_network == b.pairs_per_network &&
         a.base_seed == b.base_seed && a.scheme_labels == b.scheme_labels;
}

bool merge_fail(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
  return false;
}

}  // namespace

bool merge_slices(std::vector<SweepSlice> slices,
                  std::vector<SweepPoint>& out_points, std::string* error) {
  if (slices.empty()) return merge_fail(error, "no slices to merge");
  const SweepSlice& head = slices.front();
  for (std::size_t i = 1; i < slices.size(); ++i) {
    if (!same_sweep(head, slices[i])) {
      return merge_fail(error,
                        "slice " + std::to_string(i) +
                            " belongs to a different sweep (config mismatch)");
    }
  }

  std::vector<SliceCell> cells;
  std::set<std::pair<int, int>> seen;
  for (const SweepSlice& slice : slices) {
    for (const SliceCell& cell : slice.cells) {
      if (std::find(head.node_counts.begin(), head.node_counts.end(),
                    cell.node_count) == head.node_counts.end()) {
        return merge_fail(error, "cell at unknown node count " +
                                     std::to_string(cell.node_count));
      }
      if (cell.net_index < 0 || cell.net_index >= head.networks_per_point) {
        return merge_fail(error, "cell net_index " +
                                     std::to_string(cell.net_index) +
                                     " out of range");
      }
      if (!seen.emplace(cell.node_count, cell.net_index).second) {
        return merge_fail(error,
                          "duplicate cell (" + std::to_string(cell.node_count) +
                              ", " + std::to_string(cell.net_index) + ")");
      }
      // Every cell must carry exactly the sweep's scheme set — a missing or
      // extra label means a truncated/foreign slice, and merge_cell_results
      // would silently skip it, corrupting the bit-identical guarantee.
      if (cell.result.size() != head.scheme_labels.size()) {
        return merge_fail(error,
                          "cell (" + std::to_string(cell.node_count) + ", " +
                              std::to_string(cell.net_index) + ") has " +
                              std::to_string(cell.result.size()) +
                              " scheme results, expected " +
                              std::to_string(head.scheme_labels.size()));
      }
      for (const auto& label : head.scheme_labels) {
        if (cell.result.find(label) == cell.result.end()) {
          return merge_fail(error, "cell (" +
                                       std::to_string(cell.node_count) + ", " +
                                       std::to_string(cell.net_index) +
                                       ") is missing scheme '" + label + "'");
        }
      }
      cells.push_back(cell);
    }
  }
  std::size_t expected = head.node_counts.size() *
                         static_cast<std::size_t>(head.networks_per_point);
  if (cells.size() != expected) {
    return merge_fail(error, "incomplete sweep: " +
                                 std::to_string(cells.size()) + " of " +
                                 std::to_string(expected) + " cells present");
  }
  out_points = merge_cell_results(head.node_counts, head.scheme_labels,
                                  std::move(cells));
  return true;
}

}  // namespace spr
