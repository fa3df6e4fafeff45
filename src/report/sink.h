#pragma once

/// \file sink.h
/// ReportSink: pluggable backends that render one ScenarioReport. Sinks
/// are composable — a runner holds a list and emits the same report
/// through each, so one run can produce the console tables, the JSON
/// artifact, CSV exports and an SVG plot together:
///
///   ConsoleSink console;
///   JsonSink json("fig6.json");
///   console.emit(report);
///   json.emit(report);
///
/// ConsoleSink reproduces the pre-report printf output byte-for-byte (the
/// scenarios' text blocks carry the exact bytes; tables render through
/// Table::render as before).

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "report/report.h"

namespace spr {

/// One output backend for scenario reports.
class ReportSink {
 public:
  virtual ~ReportSink() = default;

  /// Renders `report`; returns false on I/O failure.
  virtual bool emit(const ScenarioReport& report) = 0;

  /// Short backend name ("console", "json", "csv", "svg").
  virtual const char* name() const noexcept = 0;

  /// The destination shown in error messages; empty for the console.
  virtual std::string destination() const { return {}; }
};

/// Prints the report's console stream (text blocks + rendered tables) to a
/// stdio stream, byte-identical to the printf-based scenarios this layer
/// replaced.
class ConsoleSink final : public ReportSink {
 public:
  explicit ConsoleSink(std::FILE* out = stdout) : out_(out) {}
  bool emit(const ScenarioReport& report) override;
  const char* name() const noexcept override { return "console"; }

 private:
  std::FILE* out_;
};

/// Writes the machine-readable JSON report as one document: scenario,
/// params, sweep sections under "models", notes.
class JsonSink final : public ReportSink {
 public:
  explicit JsonSink(std::string path) : path_(std::move(path)) {}
  bool emit(const ScenarioReport& report) override;
  const char* name() const noexcept override { return "json"; }
  std::string destination() const override { return path_; }

  /// The document text a report renders to (what emit() writes).
  static std::string render(const ScenarioReport& report);

 private:
  std::string path_;
};

/// Writes each report table as CSV with RFC-4180 quoting (LF row endings).
/// A single table goes to the configured path verbatim; with N > 1 tables,
/// table k goes to `<stem>-<k><ext>` (1-based, in report order).
class CsvSink final : public ReportSink {
 public:
  explicit CsvSink(std::string path) : path_(std::move(path)) {}
  bool emit(const ScenarioReport& report) override;
  const char* name() const noexcept override { return "csv"; }
  std::string destination() const override { return path_; }

  /// The file that table `index` of `table_count` lands in.
  static std::string table_path(const std::string& base, std::size_t index,
                                std::size_t table_count);

 private:
  std::string path_;
};

/// Renders the report's curves (one panel per curve, one polyline per
/// series, shared legend) as a standalone SVG. A report without curves
/// produces a small placeholder document so the artifact always exists.
class SvgSink final : public ReportSink {
 public:
  explicit SvgSink(std::string path) : path_(std::move(path)) {}
  bool emit(const ScenarioReport& report) override;
  const char* name() const noexcept override { return "svg"; }
  std::string destination() const override { return path_; }

  /// The document text a report renders to (what emit() writes).
  static std::string render(const ScenarioReport& report);

 private:
  std::string path_;
};

/// The selectable backends (`--format console,json,csv,svg`).
enum class ReportFormat { kConsole, kJson, kCsv, kSvg };

/// Parses a comma-separated format list ("console,json"). Duplicates are
/// collapsed; false (with a message in `error`) on an unknown name.
bool parse_report_formats(std::string_view list,
                          std::vector<ReportFormat>& out,
                          std::string* error = nullptr);

}  // namespace spr
