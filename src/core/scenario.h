#pragma once

/// \file scenario.h
/// ScenarioSuite: the one runner behind `spr_cli run`, the tests and CI. A
/// scenario is a named, parameterized experiment (a paper figure, the
/// delivery / stretch / construction-cost studies, a hole-field study,
/// failure dynamics, a mobile stream, the parallel-sweep scaling check).
/// Scenarios don't print: each builds a typed ScenarioReport
/// (report/report.h) and the suite renders it through the selected
/// ReportSink backends (report/sink.h) — console tables by default, plus
/// JSON / CSV / SVG when requested via `ScenarioOptions::formats`
/// (`--format`) or an explicit output path.
///
/// Trade-off of the report model: the console stream renders after the
/// scenario completes, so a paper-scale sweep prints nothing while it
/// runs. Pass smaller `networks`/`pairs` for interactive runs, or watch
/// the JSON/CSV artifacts.
///
///   spr::ScenarioOptions opts;
///   opts.networks = 5;
///   return spr::ScenarioSuite::builtin().run("fig6-avg-hops", opts);

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "report/report.h"
#include "report/sink.h"

namespace spr {

/// Cross-scenario knobs, one per `spr_cli run` flag. Zero / empty means
/// "use the scenario's default"; negative counts are rejected by
/// ScenarioSuite::run.
struct ScenarioOptions {
  int networks = 0;        ///< networks per sweep point
  int pairs = 0;           ///< pairs per network
  std::uint64_t seed = 0;  ///< base seed
  int threads = 0;         ///< sweep threads: 0 = hardware, 1 = serial
  /// Comma-separated sink selection ("console,json,csv,svg"). Empty means
  /// console, plus any sink whose explicit path below is set.
  std::string formats;
  std::string json_path;  ///< non-empty: write the JSON report here
  std::string csv_path;   ///< non-empty: write CSV table exports here
  std::string svg_path;   ///< non-empty: write the SVG sweep plot here
};

/// Why a networks / pairs / threads triple is unusable ("pairs must be >= 0,
/// got -3"), or an empty string when every count is zero or positive. The
/// check ScenarioSuite::run applies, shared with `spr_cli sweep`.
std::string negative_count_error(int networks, int pairs, int threads);

/// One registered scenario. `build` fills the report and returns a process
/// exit code; it must not print (the suite renders the report through the
/// selected sinks afterwards).
struct Scenario {
  std::string name;
  std::string description;
  std::function<int(const ScenarioOptions&, ScenarioReport&)> build;
};

/// A registry of scenarios, looked up by name.
class ScenarioSuite {
 public:
  /// The process-wide suite with every built-in scenario registered
  /// (paper figures, ablation, delivery, stretch, construction-cost,
  /// hole-field, failure-dynamics, mobile-stream, streaming-delivery,
  /// mobility-rate, sweep-scaling, tile-scaling).
  static ScenarioSuite& builtin();

  void add(Scenario scenario);
  const Scenario* find(std::string_view name) const noexcept;
  const std::vector<Scenario>& scenarios() const noexcept {
    return scenarios_;
  }

  /// Registered names close to `name` (prefix or small edit distance),
  /// best match first — the "did you mean" list behind run()'s unknown-name
  /// message.
  std::vector<std::string> suggestions(std::string_view name) const;

  /// Runs the named scenario and renders its report through the sinks
  /// `options` selects; 2 (plus a message to stderr) when the name is
  /// unknown (with near-match suggestions) or a count in `options` is
  /// negative, 1 when a sink cannot write its output.
  int run(std::string_view name, const ScenarioOptions& options = {}) const;

 private:
  std::vector<Scenario> scenarios_;
};

/// Extracts the number a figure plots from one (scheme, point) aggregate.
using MetricFn = std::function<double(const RouteAggregate&)>;

}  // namespace spr
