#include "layered.h"

#include <algorithm>

#include "bench.h"

namespace perfbench {

namespace {

void add(UpdateCounts& counts, const spr::IncrementalStats& s) {
  counts.seeds += static_cast<double>(s.seeds);
  counts.reevaluations += static_cast<double>(s.reevaluations);
  counts.flips += static_cast<double>(s.flips);
  counts.promotions += static_cast<double>(s.promotions);
  counts.arena_high_water =
      std::max(counts.arena_high_water, static_cast<double>(s.arena_high_water));
}

}  // namespace

void UpdateCounts::report(Result& result, double jobs) const {
  result.metric("safety.seeds", seeds / jobs, "count");
  result.metric("safety.reevaluations", reevaluations / jobs, "count");
  result.metric("safety.flips", flips / jobs, "count");
  result.metric("safety.promotions", promotions / jobs, "count");
  result.metric("safety.arena_high_water_bytes", arena_high_water, "bytes");
  result.metric("graph.edges_changed", edges_changed / jobs, "count");
  result.metric("mobility.moved_nodes", moved_nodes / jobs, "count");
}

LayeredNet::LayeredNet(const spr::Deployment& deployment, spr::TaskPool* pool,
                       UpdateCounts& counts)
    : pool_(pool), counts_(counts), band_(deployment.radio_range) {
  {
    Span span("graph.build");
    graph_ = std::make_unique<spr::UnitDiskGraph>(
        deployment.positions, deployment.radio_range, deployment.field, pool_);
    area_.emplace(*graph_, band_);
  }
  {
    Span span("graph.zones");
    graph_->zones(pool_);
  }
  Span span("safety.label");
  info_ = spr::compute_safety(*graph_, *area_, pool_);
}

spr::IncrementalStats LayeredNet::fail(const std::vector<spr::NodeId>& casualties) {
  std::unique_ptr<spr::UnitDiskGraph> degraded;
  std::optional<spr::InterestArea> area;
  {
    Span span("graph.with_failures");
    degraded = std::make_unique<spr::UnitDiskGraph>(
        graph_->with_failures(casualties, pool_));
    area.emplace(*degraded, band_);
  }
  Span span("safety.failures");
  spr::SafetyInfo info = info_;
  spr::IncrementalStats stats =
      spr::update_safety_after_failures(*degraded, *area, casualties, info, pool_);
  add(counts_, stats);
  graph_ = std::move(degraded);
  area_ = std::move(area);
  info_ = std::move(info);
  return stats;
}

spr::IncrementalStats LayeredNet::move(const std::vector<spr::Vec2>& positions,
                                       spr::EdgeDiff& diff) {
  std::unique_ptr<spr::UnitDiskGraph> moved;
  std::optional<spr::InterestArea> area;
  {
    Span span("graph.with_moves");
    moved = std::make_unique<spr::UnitDiskGraph>(
        graph_->with_moves(positions, &diff, pool_));
    area.emplace(*moved, band_);
  }
  Span span("safety.moves");
  spr::SafetyInfo info = info_;
  spr::IncrementalStats stats = spr::update_safety_after_moves(
      *graph_, *area_, *moved, *area, info, pool_);
  add(counts_, stats);
  counts_.edges_changed += static_cast<double>(diff.added.size() + diff.removed.size());
  counts_.moved_nodes += static_cast<double>(diff.moved_nodes);
  graph_ = std::move(moved);
  area_ = std::move(area);
  info_ = std::move(info);
  return stats;
}

}  // namespace perfbench
