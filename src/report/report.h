#pragma once

/// \file report.h
/// ScenarioReport: the structured result a scenario builds instead of
/// printing. The report separates computation from presentation — a
/// scenario records console blocks (text + tables, in print order),
/// machine-readable params, sweep sections, plot curves and notes;
/// pluggable ReportSink backends (sink.h) then render the same report as
/// console text, JSON, CSV or SVG.
///
///   ScenarioReport report;
///   report.scenario = "fig6-avg-hops";
///   report.textf("== Fig. 6 ==\n\n");
///   report.add_table(std::move(table));
///   report.add_sweep(config, points, wall_seconds);
///   // runner: for (auto& sink : sinks) sink->emit(report);

#include <cstdarg>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "stats/table.h"
#include "util/json.h"

namespace spr {

/// One titled table. The title is presentation metadata for CSV/JSON
/// consumers; the console stream prints titles as ordinary text blocks, so
/// an empty title is common.
struct ReportTable {
  std::string title;
  Table table;
};

/// One sweep's points under the configuration identity that produced them
/// — the element shape of the JSON report's "models" array.
struct SweepSection {
  DeployModel model = DeployModel::kIdeal;
  int networks_per_point = 0;
  int pairs_per_network = 0;
  std::uint64_t base_seed = 0;
  int threads = 0;
  double wall_seconds = 0.0;
  std::vector<SweepPoint> points;
};

/// One plotted series: (x, y) samples under a legend label.
struct ReportSeries {
  std::string label;
  std::vector<std::pair<double, double>> points;
};

/// One sweep curve for plot sinks (SvgSink renders one panel per curve).
struct ReportCurve {
  std::string title;
  std::string x_label;
  std::string y_label;
  std::vector<ReportSeries> series;
};

/// The typed result of one scenario run.
struct ScenarioReport {
  /// One element of the console stream: verbatim text, or a reference into
  /// `tables` (rendered with Table::render at emit time).
  struct Block {
    enum class Kind { kText, kTable };
    Kind kind = Kind::kText;
    std::string text;
    std::size_t table_index = 0;
  };

  std::string scenario;                ///< registered scenario name
  std::vector<Block> blocks;           ///< console stream, in print order
  std::vector<ReportTable> tables;     ///< every table, in insertion order
  std::vector<JsonValue::Member> params;  ///< ordered JSON payload
  std::vector<SweepSection> sweeps;    ///< JSON "models" array
  std::vector<ReportCurve> curves;     ///< plot-sink input
  std::vector<std::string> notes;      ///< trailing informational lines
  /// Set by a scenario that bailed out before producing its result (e.g.
  /// no routable pair): the console blocks still print, but structured
  /// sinks skip the incomplete report.
  bool aborted = false;

  /// Appends a verbatim text block (may span multiple lines).
  void text(std::string content);
  /// printf-style text block; the console stream reproduces the bytes
  /// printf would have produced.
  void textf(const char* format, ...) __attribute__((format(printf, 2, 3)));
  /// Appends a table to both the console stream and the table list.
  void add_table(Table table, std::string title = {});
  /// Appends an ordered machine-readable param.
  void param(std::string key, JsonValue value);
  /// Appends a sweep section from a finished run_sweep call.
  void add_sweep(const SweepConfig& config, std::vector<SweepPoint> points,
                 double wall_seconds);
  /// Records `line` as a note and prints it (plus '\n') on the console
  /// stream.
  void note(std::string line);
};

/// "IA" / "FA" — the short model tag used by JSON reports and shard files.
const char* deploy_model_tag(DeployModel model) noexcept;
/// Inverse of deploy_model_tag; false when the tag is unknown.
bool deploy_model_from_tag(std::string_view tag, DeployModel& model) noexcept;

}  // namespace spr
