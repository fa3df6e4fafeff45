#pragma once

/// \file serialize.h
/// JSON round-trip for the sweep result model. Two forms coexist:
///
/// - *Stats* form (`summary_stats` / `sweep_section_to_json`): the
///   compact derived-moments shape the scenario reports have always
///   emitted (count/mean/min/max/stddev). Lossy — for human and dashboard
///   consumption.
/// - *Full* form (`to_json` / `from_json`): retains every Summary sample,
///   so deserializing re-adds the samples in order and reconstructs the
///   accumulator bit-identically. This is what makes the sweep cell the
///   unit of cross-process distribution: run slices anywhere, serialize
///   their `CellResult`s, and `merge_slices` reproduces the in-process
///   `run_sweep` aggregates exactly.
///
/// Each record has one field list in serialize.cpp — wire key plus member
/// pointer, in wire order — that drives both directions through one
/// generic builder and its inverse reader: `to_json(x)` returns the
/// JsonValue that `from_json` reads back, and `to_json(x).dump()` (or
/// `.write_file(path)`) is the text. A new persisted member is one line
/// there. The wire format is frozen: the tests pin every record's text
/// (keys, order, number formatting), so slice files written by older
/// builds still merge.
///
/// The reader is strict. It rejects a missing member, a fractional or
/// out-of-range number in an integer member, a negative count, a
/// non-number, null or non-finite double, a duplicate scheme label, and in
/// slice files a wrong `spr_shard` version, an unknown model, a negative
/// node count or a slice index outside [0, shard_count). Unknown members
/// are ignored, and `arena_high_water` may be absent (older artifacts lack
/// it).
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
#include "util/json.h"

namespace spr {

// ------------------------------------------------------------ stats form
/// {count, mean, min, max, stddev} — the report shape.
JsonValue summary_stats(const Summary& s);
/// One sweep section in the report shape (the "models" array element).
JsonValue sweep_section_to_json(const SweepSection& section);

// ------------------------------------------------------------- full form
/// {"values": [...]} — everything needed to rebuild the accumulator.
JsonValue to_json(const Summary& s);
bool from_json(const JsonValue& v, Summary& out);

JsonValue to_json(const RouteAggregate& agg);
bool from_json(const JsonValue& v, RouteAggregate& out);

/// {"nodes": n, "schemes": {label: aggregate...}}
JsonValue to_json(const SweepPoint& point);
bool from_json(const JsonValue& v, SweepPoint& out);

/// {label: aggregate...}
JsonValue to_json(const CellResult& cell);
bool from_json(const JsonValue& v, CellResult& out);

JsonValue to_json(const SweepTimings& t);
bool from_json(const JsonValue& v, SweepTimings& out);

// --------------------------------------------------------- stream results
/// Stats form of one StreamSim run (the streaming-delivery scenario's
/// report shape): per-scheme delivery/hops/stretch/latency summaries plus
/// the per-wave incremental-relabeling records, as a DOM that report
/// params and the example exports embed directly.
JsonValue stream_stats_json(const StreamStats& stats);

/// Full (sample-retaining) forms: a deserialized StreamStats reconstructs
/// every Summary accumulator bit-identically, like the sweep cell forms.
JsonValue to_json(const IncrementalStats& stats);
bool from_json(const JsonValue& v, IncrementalStats& out);

JsonValue to_json(const WaveRecord& record);
bool from_json(const JsonValue& v, WaveRecord& out);

JsonValue to_json(const RepinRecord& record);
bool from_json(const JsonValue& v, RepinRecord& out);

JsonValue to_json(const StreamSchemeStats& stats);
bool from_json(const JsonValue& v, StreamSchemeStats& out);

JsonValue to_json(const StreamStats& stats);
bool from_json(const JsonValue& v, StreamStats& out);

// ------------------------------------------------------------ slice files
/// A serialized sweep *slice*: the sweep's identity (enough to check that
/// two slices came from the same sweep) plus the computed cells in full
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
