#include "report/sink.h"

#include <algorithm>
#include <cmath>

#include "report/serialize.h"
#include "stats/table.h"
#include "util/suggest.h"
#include "util/svg.h"

namespace spr {

// ---------------------------------------------------------------- console

bool ConsoleSink::emit(const ScenarioReport& report) {
  for (const auto& block : report.blocks) {
    if (block.kind == ScenarioReport::Block::Kind::kText) {
      if (std::fputs(block.text.c_str(), out_) == EOF) return false;
    } else if (block.table_index < report.tables.size()) {
      const std::string rendered =
          report.tables[block.table_index].table.render();
      if (std::fputs(rendered.c_str(), out_) == EOF) return false;
    }
  }
  return std::fflush(out_) != EOF;
}

// ------------------------------------------------------------------- json

namespace {

JsonValue json_document(const ScenarioReport& report) {
  JsonValue doc = JsonValue::object();
  doc.set("scenario", JsonValue::of(report.scenario));
  for (const auto& [key, value] : report.params) doc.set(key, value);
  if (!report.sweeps.empty()) {
    JsonValue models = JsonValue::array();
    for (const auto& section : report.sweeps) {
      models.push(sweep_section_to_json(section));
    }
    doc.set("models", std::move(models));
  }
  if (!report.notes.empty()) {
    JsonValue notes = JsonValue::array();
    for (const auto& note : report.notes) notes.push(JsonValue::of(note));
    doc.set("notes", std::move(notes));
  }
  return doc;
}

}  // namespace

std::string JsonSink::render(const ScenarioReport& report) {
  return json_document(report).dump();
}

bool JsonSink::emit(const ScenarioReport& report) {
  return json_document(report).write_file(path_);
}

// -------------------------------------------------------------------- csv

std::string CsvSink::table_path(const std::string& base, std::size_t index,
                                std::size_t table_count) {
  if (table_count <= 1) return base;
  std::size_t slash = base.find_last_of('/');
  std::size_t dot = base.find_last_of('.');
  // Built by append: the `"-" + std::to_string(...)` temporary-insert form
  // trips GCC 12's -Wrestrict false positive (PR105651) under -Werror.
  std::string suffix("-");
  suffix += std::to_string(index + 1);
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return base + suffix;
  }
  return base.substr(0, dot) + suffix + base.substr(dot);
}

bool CsvSink::emit(const ScenarioReport& report) {
  if (report.tables.empty()) {
    // Still create the artifact so pipelines see a (header-free) file.
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) return false;
    return std::fclose(f) == 0;
  }
  for (std::size_t i = 0; i < report.tables.size(); ++i) {
    std::string path = table_path(path_, i, report.tables.size());
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::string csv = report.tables[i].table.to_csv();
    bool ok = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
    ok = std::fclose(f) == 0 && ok;
    if (!ok) return false;
  }
  return true;
}

// -------------------------------------------------------------------- svg

namespace {

const char* kSeriesPalette[] = {"#2980b9", "#e67e22", "#27ae60", "#8e44ad",
                                "#c0392b", "#16a085", "#7f8c8d", "#f1c40f"};
constexpr std::size_t kPaletteSize =
    sizeof(kSeriesPalette) / sizeof(kSeriesPalette[0]);

constexpr double kPanelWidth = 640.0;
constexpr double kPanelHeight = 400.0;
constexpr double kPanelGap = 30.0;
constexpr double kMarginLeft = 78.0;
constexpr double kMarginRight = 24.0;
constexpr double kMarginTop = 46.0;
constexpr double kMarginBottom = 52.0;

std::string tick_label(double value) {
  double magnitude = std::fabs(value);
  int digits = magnitude >= 100.0 ? 0 : magnitude >= 10.0 ? 1 : 2;
  return Table::fmt(value, digits);
}

/// Draws one curve into the panel whose *bottom-left* world corner is
/// (0, panel_bottom).
void draw_curve(SvgCanvas& svg, const ReportCurve& curve,
                double panel_bottom) {
  double plot_left = kMarginLeft;
  double plot_right = kPanelWidth - kMarginRight;
  double plot_bottom = panel_bottom + kMarginBottom;
  double plot_top = panel_bottom + kPanelHeight - kMarginTop;

  // Data range over every series; degenerate ranges get a unit pad.
  double x_min = 0.0, x_max = 0.0, y_min = 0.0, y_max = 0.0;
  bool any = false;
  for (const auto& series : curve.series) {
    for (auto [x, y] : series.points) {
      if (!any) {
        x_min = x_max = x;
        y_min = y_max = y;
        any = true;
      } else {
        x_min = std::min(x_min, x);
        x_max = std::max(x_max, x);
        y_min = std::min(y_min, y);
        y_max = std::max(y_max, y);
      }
    }
  }
  if (!any) {
    svg.text({plot_left, (plot_bottom + plot_top) / 2.0}, "(no data)", 14.0,
             "#7f8c8d");
    return;
  }
  if (y_min > 0.0) y_min = 0.0;  // anchor magnitude axes at zero
  if (x_max - x_min < 1e-12) x_max = x_min + 1.0;
  if (y_max - y_min < 1e-12) y_max = y_min + 1.0;

  auto map_x = [&](double x) {
    return plot_left + (x - x_min) / (x_max - x_min) * (plot_right - plot_left);
  };
  auto map_y = [&](double y) {
    return plot_bottom +
           (y - y_min) / (y_max - y_min) * (plot_top - plot_bottom);
  };

  // Frame + title.
  svg.rect(Rect::from_corners({plot_left, plot_bottom}, {plot_right, plot_top}),
           "none", "#2c3e50", 1.2, 1.0);
  svg.text({plot_left, plot_top + 14.0}, curve.title, 15.0, "#2c3e50");

  // Axis ticks: min / mid / max on both axes.
  for (double f : {0.0, 0.5, 1.0}) {
    double x = x_min + f * (x_max - x_min);
    double px = map_x(x);
    svg.line({px, plot_bottom}, {px, plot_bottom - 5.0}, "#2c3e50", 1.0);
    svg.text({px - 12.0, plot_bottom - 20.0}, tick_label(x), 11.0, "#2c3e50");
    double y = y_min + f * (y_max - y_min);
    double py = map_y(y);
    svg.line({plot_left, py}, {plot_left - 5.0, py}, "#2c3e50", 1.0);
    svg.text({plot_left - 46.0, py - 4.0}, tick_label(y), 11.0, "#2c3e50");
  }
  svg.text({(plot_left + plot_right) / 2.0 - 24.0, plot_bottom - 38.0},
           curve.x_label, 12.0, "#2c3e50");
  svg.text({6.0, plot_top + 14.0}, curve.y_label, 12.0, "#2c3e50");

  // Series polylines + markers + legend.
  double legend_x = plot_left + 10.0;
  double legend_y = plot_top - 16.0;
  for (std::size_t si = 0; si < curve.series.size(); ++si) {
    const auto& series = curve.series[si];
    const char* color = kSeriesPalette[si % kPaletteSize];
    std::vector<Vec2> pts;
    pts.reserve(series.points.size());
    for (auto [x, y] : series.points) pts.push_back({map_x(x), map_y(y)});
    if (pts.size() > 1) svg.polyline(pts, color, 2.0, 0.95);
    for (Vec2 p : pts) svg.circle(p, 3.0, color);
    svg.line({legend_x, legend_y + 4.0}, {legend_x + 22.0, legend_y + 4.0},
             color, 2.5);
    svg.text({legend_x + 28.0, legend_y}, series.label, 11.0, "#2c3e50");
    legend_y -= 16.0;
  }
}

}  // namespace

std::string SvgSink::render(const ScenarioReport& report) {
  std::size_t panels = std::max<std::size_t>(report.curves.size(), 1);
  double height = static_cast<double>(panels) * kPanelHeight +
                  static_cast<double>(panels - 1) * kPanelGap;
  SvgCanvas svg(Rect::from_corners({0.0, 0.0}, {kPanelWidth, height}), 1.0);
  if (report.curves.empty()) {
    svg.text({kMarginLeft, height / 2.0},
             "scenario '" + report.scenario + "': no sweep curves", 14.0,
             "#7f8c8d");
    return svg.render();
  }
  for (std::size_t ci = 0; ci < report.curves.size(); ++ci) {
    // First curve on top: panel k's bottom edge, counted from the top.
    double panel_bottom = (static_cast<double>(report.curves.size() - 1 - ci)) *
                          (kPanelHeight + kPanelGap);
    draw_curve(svg, report.curves[ci], panel_bottom);
  }
  return svg.render();
}

bool SvgSink::emit(const ScenarioReport& report) {
  std::string document = render(report);
  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = std::fwrite(document.data(), 1, document.size(), f) ==
            document.size();
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

// ----------------------------------------------------------------- format

bool parse_report_formats(std::string_view list,
                          std::vector<ReportFormat>& out,
                          std::string* error) {
  std::vector<ReportFormat> formats;
  std::size_t pos = 0;
  while (pos <= list.size()) {
    std::size_t comma = list.find(',', pos);
    std::string_view token = list.substr(
        pos, comma == std::string_view::npos ? list.size() - pos
                                             : comma - pos);
    // Trim surrounding spaces.
    while (!token.empty() && token.front() == ' ') token.remove_prefix(1);
    while (!token.empty() && token.back() == ' ') token.remove_suffix(1);
    if (!token.empty()) {
      ReportFormat format;
      if (token == "console") format = ReportFormat::kConsole;
      else if (token == "json") format = ReportFormat::kJson;
      else if (token == "csv") format = ReportFormat::kCsv;
      else if (token == "svg") format = ReportFormat::kSvg;
      else {
        if (error != nullptr) {
          // Same "did you mean" machinery as unknown scenario names.
          static const std::vector<std::string> kNames = {"console", "json",
                                                          "csv", "svg"};
          *error = "unknown report format '" + std::string(token) +
                   "' (expected console, json, csv or svg)";
          auto close = near_matches(token, kNames);
          if (!close.empty()) {
            *error += "; did you mean '" + close.front() + "'?";
          }
        }
        return false;
      }
      if (std::find(formats.begin(), formats.end(), format) == formats.end()) {
        formats.push_back(format);
      }
    }
    if (comma == std::string_view::npos) break;
    pos = comma + 1;
  }
  out = std::move(formats);
  return true;
}

}  // namespace spr
