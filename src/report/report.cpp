#include "report/report.h"

#include <cstdio>

namespace spr {

void ScenarioReport::text(std::string content) {
  blocks.push_back({Block::Kind::kText, std::move(content), 0});
}

void ScenarioReport::textf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list measure;
  va_copy(measure, args);
  int needed = std::vsnprintf(nullptr, 0, format, measure);
  va_end(measure);
  std::string out;
  if (needed > 0) {
    // One extra slot for vsnprintf's terminator, dropped after the write.
    out.resize(static_cast<std::size_t>(needed) + 1);
    std::vsnprintf(out.data(), out.size(), format, args);
    out.pop_back();
  }
  va_end(args);
  text(std::move(out));
}

void ScenarioReport::add_table(Table table, std::string title) {
  blocks.push_back({Block::Kind::kTable, {}, tables.size()});
  tables.push_back({std::move(title), std::move(table)});
}

void ScenarioReport::param(std::string key, JsonValue value) {
  params.emplace_back(std::move(key), std::move(value));
}

void ScenarioReport::add_sweep(const SweepConfig& config,
                               std::vector<SweepPoint> points,
                               double wall_seconds) {
  SweepSection section;
  section.model = config.model;
  section.networks_per_point = config.networks_per_point;
  section.pairs_per_network = config.pairs_per_network;
  section.base_seed = config.base_seed;
  section.threads = config.threads;
  section.wall_seconds = wall_seconds;
  section.points = std::move(points);
  sweeps.push_back(std::move(section));
}

void ScenarioReport::note(std::string line) {
  text(line + "\n");
  notes.push_back(std::move(line));
}

const char* deploy_model_tag(DeployModel model) noexcept {
  return model == DeployModel::kIdeal ? "IA" : "FA";
}

bool deploy_model_from_tag(std::string_view tag, DeployModel& model) noexcept {
  if (tag == "IA") {
    model = DeployModel::kIdeal;
    return true;
  }
  if (tag == "FA") {
    model = DeployModel::kForbiddenAreas;
    return true;
  }
  return false;
}

}  // namespace spr
