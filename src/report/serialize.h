#pragma once

/// \file serialize.h
/// JSON forms of the sweep and stream result records:
///
/// - the *stats* form (`summary_stats`, `sweep_section_to_json`,
///   `stream_stats_json`) is the reports' shape: each Summary's
///   count/mean/min/max/stddev, plus derived values such as
///   `delivery_ratio`. Lossy; nothing reads it back.
/// - the *wire* form (`to_json` / `from_json`) retains every Summary
///   sample, so deserializing reconstructs each accumulator
///   bit-identically. That makes the sweep cell the unit of cross-process
///   distribution: run slices anywhere, and `merge_slices` reproduces the
///   in-process `run_sweep` aggregates exactly.
///
/// One builder writes a record in either form by walking the member list
/// the record keeps beside its struct (util/fields.h); a derived entry is
/// written only in the stats form. The section header and the stream's
/// wave and re-pin rows around those records are written by hand. The
/// wire reader walks the same lists: `to_json(x)` returns the JsonValue
/// that `from_json` reads back, and `to_json(x).dump()` (or
/// `.write_file(path)`) is the text. Both forms are frozen: the tests pin
/// their text (keys, order, number formatting), so slice files written by
/// older builds still merge.
///
/// The reader is strict. It rejects a missing member, a fractional or
/// out-of-range number in an integer member, a negative count, a
/// non-number, null or non-finite double, a duplicate scheme label, and in
/// slice files a wrong `spr_shard` version, an unknown model, a negative
/// node count or a slice index outside [0, shard_count). Unknown members
/// are ignored.
///
/// Doubles are emitted with %.17g and parsed with from_chars, so every
/// finite double survives the trip bit-exactly; a non-finite one is
/// written as null, which no reader accepts back.

#include <string>
#include <vector>

#include "core/experiment.h"
#include "report/report.h"
#include "sim/stream_sim.h"
#include "stats/summary.h"
#include "util/fields.h"
#include "util/json.h"

namespace spr {

// ------------------------------------------------------------ stats form
/// {count, mean, min, max, stddev} — the report shape.
JsonValue summary_stats(const Summary& s);
/// One sweep section in the report shape (the "models" array element).
JsonValue sweep_section_to_json(const SweepSection& section);
/// One StreamSim run in the report shape (the stream scenarios' per-cell
/// "stats"): per-scheme delivery/hops/stretch/latency summaries plus the
/// per-wave and per-re-pin incremental-relabeling records.
JsonValue stream_stats_json(const StreamStats& stats);

// ------------------------------------------------------------- wire form
/// {"values": [...]} — everything needed to rebuild the accumulator.
JsonValue to_json(const Summary& s);
bool from_json(const JsonValue& v, Summary& out);

JsonValue to_json(const RouteAggregate& agg);
bool from_json(const JsonValue& v, RouteAggregate& out);

/// {label: aggregate...}
JsonValue to_json(const CellResult& cell);
bool from_json(const JsonValue& v, CellResult& out);

JsonValue to_json(const SweepTimings& t);
bool from_json(const JsonValue& v, SweepTimings& out);

// ------------------------------------------------------------ slice files
/// A serialized sweep *slice*: the sweep's identity (enough to check that
/// two slices came from the same sweep) plus the computed cells in wire
/// form. ("Slice" = a modular subset of a sweep's cells for cross-process
/// distribution — distinct from the *spatial tiles* of shard/, which
/// partition one deployment's field. The JSON wire keys keep the historical
/// "shard" spelling for compatibility.)
struct SweepSlice {
  std::string model_tag;  ///< "IA" / "FA"
  std::vector<int> node_counts;
  int networks_per_point = 0;
  int pairs_per_network = 0;
  std::uint64_t base_seed = 0;
  std::vector<std::string> scheme_labels;
  int slice_index = 0;
  int slice_count = 1;
  std::vector<SliceCell> cells;

  bool operator==(const SweepSlice&) const = default;

  /// The members in wire order after the file format's version
  /// (util/fields.h).
  static constexpr std::tuple fields{
      Constant{"spr_shard", 1},
      Field{"model", &SweepSlice::model_tag},
      Field{"node_counts", &SweepSlice::node_counts},
      Field{"networks_per_point", &SweepSlice::networks_per_point},
      Field{"pairs_per_network", &SweepSlice::pairs_per_network},
      Field{"base_seed", &SweepSlice::base_seed},
      Field{"schemes", &SweepSlice::scheme_labels},
      Field{"shard_index", &SweepSlice::slice_index},
      Field{"shard_count", &SweepSlice::slice_count},
      Field{"cells", &SweepSlice::cells},
  };
};

/// Builds the slice header from the config that ran the cells.
SweepSlice make_slice(const SweepConfig& config, int slice_index,
                      int slice_count, std::vector<SliceCell> cells);

JsonValue to_json(const SweepSlice& slice);
bool from_json(const JsonValue& v, SweepSlice& out);

/// Merges slice files into sweep points. Validates that every slice
/// belongs to the same sweep (identical header identity), that no cell
/// appears twice, and that the union covers every cell of the sweep —
/// then replays run_sweep's canonical cell-order reduction, so the result
/// is bit-identical to the in-process sweep. On failure returns false and
/// describes the problem in `error` (when non-null).
bool merge_slices(std::vector<SweepSlice> slices,
                  std::vector<SweepPoint>& out_points,
                  std::string* error = nullptr);

}  // namespace spr
