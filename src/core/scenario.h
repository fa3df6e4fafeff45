#pragma once

/// \file scenario.h
/// ScenarioSuite: the shared runner behind the figure benches, the CLI and
/// CI. A scenario is a named, parameterized experiment (a paper figure, a
/// hole-field study, failure dynamics, a mobile stream, the parallel-sweep
/// scaling check). Scenarios don't print: each builds a typed
/// ScenarioReport (report/report.h) and the suite renders it through the
/// selected ReportSink backends (report/sink.h) — console tables by
/// default, plus JSON / CSV / SVG when requested via
/// `ScenarioOptions::formats` (`--format`, `SPR_FORMATS`) or an explicit
/// output path.
///
/// Trade-off of the report model: the console stream renders after the
/// scenario completes, so a paper-scale sweep prints nothing while it
/// runs (the old printf path streamed per model). Pass smaller
/// `networks`/`pairs` for interactive runs, or watch the JSON/CSV
/// artifacts.
///
///   spr::ScenarioOptions opts = spr::scenario_options_from_env();
///   return spr::ScenarioSuite::builtin().run("fig6-avg-hops", opts);

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.h"
#include "report/report.h"
#include "report/sink.h"

namespace spr {

/// Cross-scenario knobs. Zero / empty means "use the scenario's default".
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

/// Options from the environment: SPR_NETWORKS, SPR_PAIRS, SPR_SEED,
/// SPR_THREADS, SPR_FORMATS, SPR_JSON, SPR_CSV, SPR_SVG. Unset variables
/// leave the scenario defaults; malformed, negative or overflowing numbers
/// fall back to the defaults too (never UB, never silent garbage).
ScenarioOptions scenario_options_from_env();

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
  /// (paper figures, ablation, hole-field, failure-dynamics, mobile-stream,
  /// sweep-scaling).
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
  /// `options` selects; 2 (plus a message with near-match suggestions to
  /// stderr) when the name is unknown, 1 when a sink cannot write its
  /// output.
  int run(std::string_view name, const ScenarioOptions& options = {}) const;

 private:
  std::vector<Scenario> scenarios_;
};

/// Extracts the number a figure plots from one (scheme, point) aggregate.
using MetricFn = std::function<double(const RouteAggregate&)>;

/// Display name of a deployment model ("IA (uniform)" / "FA (forbidden
/// areas)"), shared by the scenarios and the benches.
const char* model_name(DeployModel model) noexcept;

}  // namespace spr
