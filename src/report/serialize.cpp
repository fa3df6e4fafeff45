#include "report/serialize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <tuple>
#include <type_traits>
#include <utility>

#include "util/fields.h"

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

/// The two shapes the one builder writes. The wire form keeps every
/// Summary sample; the stats form writes a Summary's moments and a
/// record's derived values too.
enum class Form { kWire, kStats };

/// The one builder, defined with the wire form below.
template <Form form, typename T>
JsonValue to_value(const T& value);

}  // namespace

JsonValue sweep_section_to_json(const SweepSection& section) {
  JsonValue points = JsonValue::array();
  for (const auto& point : section.points) {
    JsonValue entry = JsonValue::object();
    entry.set("nodes", JsonValue::of(point.node_count));
    entry.set("schemes", to_value<Form::kStats>(point.by_scheme));
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
    schemes.set(s.label, to_value<Form::kStats>(s));
  }
  root.set("schemes", std::move(schemes));
  return root;
}

// ------------------------------------------------------------- wire form

namespace {

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
constexpr bool kIsLabelMap = false;
template <typename T>
constexpr bool kIsLabelMap<std::map<std::string, T>> = true;

/// A member or a constant under its key, a derived value in stats only.
template <Form form, typename T, typename M>
void write_entry(JsonValue& out, const T& record, const Field<T, M>& entry) {
  out.set(entry.key, to_value<form>(record.*entry.member));
}

template <Form form, typename T, typename R>
void write_entry(JsonValue& out, const T& record,
                 const Derived<T, R>& entry) {
  if constexpr (form == Form::kStats) {
    out.set(entry.key, to_value<form>((record.*entry.get)()));
  }
}

template <Form form, typename T>
void write_entry(JsonValue& out, const T& /*record*/, const Constant& entry) {
  out.set(entry.key, JsonValue::of(entry.value));
}

/// The one builder. A Summary is {"values": [...]} on the wire and
/// summary_stats in the stats form, a vector an array, a label-keyed map
/// an object, a record an object in list order.
template <Form form, typename T>
JsonValue to_value(const T& value) {
  if constexpr (std::is_same_v<T, Summary> && form == Form::kStats) {
    return summary_stats(value);
  } else if constexpr (std::is_same_v<T, Summary>) {
    JsonValue v = JsonValue::object();
    v.set("values", to_value<form>(value.values()));
    return v;
  } else if constexpr (kIsVector<T>) {
    JsonValue items = JsonValue::array(value.size());
    for (const auto& item : value) items.push(to_value<form>(item));
    return items;
  } else if constexpr (kIsLabelMap<T>) {
    JsonValue items = JsonValue::object();
    for (const auto& [label, item] : value) {
      items.set(label, to_value<form>(item));
    }
    return items;
  } else if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, int> ||
                       std::is_same_v<T, double> ||
                       std::is_same_v<T, std::string>) {
    return JsonValue::of(value);
  } else if constexpr (std::is_unsigned_v<T>) {
    return JsonValue::of(static_cast<std::uint64_t>(value));
  } else {
    JsonValue record = JsonValue::object();
    std::apply(
        [&](const auto&... entry) {
          (write_entry<form>(record, value, entry), ...);
        },
        T::fields);
    return record;
  }
}

template <typename T>
bool read_value(const JsonValue& v, T& out);

/// A member must be present and valid.
template <typename T, typename M>
bool read_entry(const JsonValue& v, T& record, const Field<T, M>& entry) {
  return read_value(v.get(entry.key), record.*entry.member);
}

template <typename T, typename R>
bool read_entry(const JsonValue& /*v*/, T& /*record*/,
                const Derived<T, R>& /*entry*/) {
  return true;
}

template <typename T>
bool read_entry(const JsonValue& v, T& /*record*/, const Constant& entry) {
  int found = 0;
  return read_value(v.get(entry.key), found) && found == entry.value;
}

/// The one reader, the wire builder's inverse. Integers must be integral
/// tokens that fit the member (no sign for counts), doubles finite numbers
/// (the builder writes a non-finite one as null), labels must be unique,
/// every member present and a constant equal; unknown members are ignored.
/// Writes `out` only on success.
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
            [&](const auto&... entry) {
              return (read_entry(v, record, entry) && ...);
            },
            T::fields)) {
      return false;
    }
    out = std::move(record);
  }
  return true;
}

}  // namespace

JsonValue to_json(const Summary& value) { return to_value<Form::kWire>(value); }
bool from_json(const JsonValue& v, Summary& out) { return read_value(v, out); }
JsonValue to_json(const RouteAggregate& value) {
  return to_value<Form::kWire>(value);
}
bool from_json(const JsonValue& v, RouteAggregate& out) {
  return read_value(v, out);
}
JsonValue to_json(const CellResult& value) {
  return to_value<Form::kWire>(value);
}
bool from_json(const JsonValue& v, CellResult& out) { return read_value(v, out); }
JsonValue to_json(const SweepTimings& value) {
  return to_value<Form::kWire>(value);
}
bool from_json(const JsonValue& v, SweepTimings& out) {
  return read_value(v, out);
}
JsonValue to_json(const SweepSlice& value) {
  return to_value<Form::kWire>(value);
}
/// Past what the member types check, a slice file needs a known model, no
/// negative node count and a slice index inside its count (the bounds
/// `spr_cli sweep --slice` enforces when writing).
bool from_json(const JsonValue& v, SweepSlice& out) {
  SweepSlice slice;
  DeployModel model = DeployModel::kIdeal;
  if (!read_value(v, slice) || !deploy_model_from_tag(slice.model_tag, model) ||
      std::ranges::any_of(slice.node_counts, [](int n) { return n < 0; }) ||
      slice.slice_index < 0 || slice.slice_index >= slice.slice_count) {
    return false;
  }
  out = std::move(slice);
  return true;
}

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

  // The checks read only the head's header, so each cell moves out of its
  // slice once it passes them.
  std::vector<SliceCell> cells;
  std::set<std::pair<int, int>> seen;
  for (SweepSlice& slice : slices) {
    for (SliceCell& cell : slice.cells) {
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
      cells.push_back(std::move(cell));
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
