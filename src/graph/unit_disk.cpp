#include "graph/unit_disk.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "graph/spatial_grid.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace spr {

namespace {
/// Rows up to this length sort by rank; longer ones by std::sort.
constexpr std::size_t kRankSortMax = 64;

/// Sorts one row of distinct ids ascending. A short row, which is every
/// row of a constant-degree field, places each id at its rank, the count
/// of smaller ids in the row: a branch-free quadratic count that costs
/// about a third of std::sort's compare-and-branch at the fields' ~19
/// entries. The ids are distinct, so the ranks are a permutation and the
/// result is std::sort's.
void sort_row(std::span<NodeId> row) {
  if (row.size() > kRankSortMax) {
    std::sort(row.begin(), row.end());
    return;
  }
  NodeId ranked[kRankSortMax];
  for (const NodeId v : row) {
    std::uint32_t rank = 0;
    for (const NodeId w : row) rank += static_cast<std::uint32_t>(w < v);
    ranked[rank] = v;
  }
  std::copy(ranked, ranked + row.size(), row.begin());
}

/// Rejects a NaN or infinite coordinate where positions enter the graph: it
/// has no grid cell and no distance, so no adjacency could be exact.
void check_finite(const std::vector<Vec2>& positions, const char* where) {
  const auto bad =
      std::find_if(positions.begin(), positions.end(), [](Vec2 p) {
        return !std::isfinite(p.x) || !std::isfinite(p.y);
      });
  SPR_CHECK(bad == positions.end(), where, ": node ",
            bad - positions.begin(), " has a non-finite position");
}
/// The block fill: the rows of nodes node(0), ..., node(count - 1) as one
/// CSR (`offsets` gets count + 1 entries). A row lists, ascending, the
/// alive nodes within `range` of its node on `grid`; a dead node's row is
/// empty. Each block of UnitDiskGraph::kBuildBlock rows fills one buffer
/// and writes its rows' lengths, one prefix sum turns the lengths into
/// offsets, and each buffer is copied to its block's offset. Blocks fan out
/// over `pool` and land at the same offset whichever thread filled them,
/// so the CSR is bit-identical to a serial fill.
template <typename NodeOf>
void fill_rows(const SpatialGrid& grid, const std::vector<Vec2>& positions,
               double range, const std::vector<bool>& alive, std::size_t count,
               NodeOf node, TaskPool* pool, std::vector<std::size_t>& offsets,
               std::vector<NodeId>& adjacency) {
  constexpr std::size_t kBlock = UnitDiskGraph::kBuildBlock;
  const std::size_t blocks = (count + kBlock - 1) / kBlock;
  offsets.assign(count + 1, 0);
  std::vector<std::vector<NodeId>> filled(blocks);
  auto fill = [&](std::size_t first, std::size_t last) {
    for (std::size_t b = first; b < last; ++b) {
      std::vector<NodeId>& rows = filled[b];
      for (std::size_t i = b * kBlock; i < std::min(count, (b + 1) * kBlock);
           ++i) {
        const NodeId u = node(i);
        const std::size_t row = rows.size();
        if (alive[u]) {
          grid.query_radius(positions[u], range, u, rows);
          const auto start = rows.begin() + static_cast<std::ptrdiff_t>(row);
          rows.erase(std::remove_if(start, rows.end(),
                                    [&](NodeId v) { return !alive[v]; }),
                     rows.end());
          sort_row({rows.data() + row, rows.size() - row});
        }
        offsets[i + 1] = rows.size() - row;
      }
    }
  };
  auto copy = [&](std::size_t first, std::size_t last) {
    for (std::size_t b = first; b < last; ++b) {
      std::copy(filled[b].begin(), filled[b].end(),
                adjacency.begin() +
                    static_cast<std::ptrdiff_t>(offsets[b * kBlock]));
    }
  };
  parallel_for_blocked(pool, blocks, 1, fill);
  for (std::size_t i = 0; i < count; ++i) offsets[i + 1] += offsets[i];
  adjacency.resize(offsets[count]);
  parallel_for_blocked(pool, blocks, 1, copy);
}
}  // namespace

bool edge_diff_normalized(const EdgeDiff& diff) {
  auto normalized = [](const std::vector<std::pair<NodeId, NodeId>>& pairs) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (pairs[i].first >= pairs[i].second) return false;
      if (i > 0 && !(pairs[i - 1] < pairs[i])) return false;
    }
    return true;
  };
  if (!normalized(diff.added) || !normalized(diff.removed)) return false;
  // Both lists are sorted, so one tandem walk finds any common pair.
  std::size_t ai = 0, ri = 0;
  while (ai < diff.added.size() && ri < diff.removed.size()) {
    if (diff.added[ai] == diff.removed[ri]) return false;
    if (diff.added[ai] < diff.removed[ri]) {
      ++ai;
    } else {
      ++ri;
    }
  }
  return true;
}

UnitDiskGraph::UnitDiskGraph(std::vector<Vec2> positions, double range,
                             Rect bounds, TaskPool* build_pool)
    : positions_(std::move(positions)), range_(range), bounds_(bounds) {
  build(std::vector<bool>(positions_.size(), true), build_pool);
}

UnitDiskGraph::UnitDiskGraph(std::vector<Vec2> positions, double range,
                             Rect bounds, const std::vector<bool>& alive,
                             TaskPool* build_pool)
    : positions_(std::move(positions)), range_(range), bounds_(bounds) {
  build(alive, build_pool);
}

const QuadrantZones& UnitDiskGraph::zones(TaskPool* build_pool) const {
  ZonesCache& cache = *zones_cache_;
  std::call_once(cache.once, [&] {
    // Skips the build when a with_failures/with_moves patch installed the
    // zones eagerly (adopt_zones runs during construction, pre-publication).
    if (!cache.built.load(std::memory_order_acquire)) {
      cache.zones = QuadrantZones::build(*this, build_pool);
      cache.built.store(true, std::memory_order_release);
    }
  });
  return cache.zones;
}

bool UnitDiskGraph::has_zones() const noexcept {
  return zones_cache_ != nullptr &&
         zones_cache_->built.load(std::memory_order_acquire);
}

void UnitDiskGraph::adopt_zones(QuadrantZones zones) const {
  zones_cache_->zones = std::move(zones);
  zones_cache_->built.store(true, std::memory_order_release);
}

void UnitDiskGraph::build(const std::vector<bool>& alive,
                          TaskPool* build_pool) {
  check_finite(positions_, "UnitDiskGraph");
  zones_cache_ = std::make_shared<ZonesCache>();
  alive_ = alive;
  alive_.resize(positions_.size(), true);
  grid_ = std::make_shared<SpatialGrid>(positions_, bounds_, range_);
  fill_rows(*grid_, positions_, range_, alive_, positions_.size(),
            [](std::size_t u) { return static_cast<NodeId>(u); }, build_pool,
            offsets_, adjacency_);
}

bool UnitDiskGraph::are_neighbors(NodeId u, NodeId v) const noexcept {
  auto nbrs = neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

double UnitDiskGraph::average_degree() const noexcept {
  if (positions_.empty()) return 0.0;
  return static_cast<double>(adjacency_.size()) /
         static_cast<double>(positions_.size());
}

UnitDiskGraph::UnitDiskGraph(PatchedTag, std::vector<Vec2> positions,
                             double range, Rect bounds,
                             std::shared_ptr<const SpatialGrid> grid,
                             std::vector<bool> alive,
                             std::vector<std::size_t> offsets,
                             std::vector<NodeId> adjacency)
    : positions_(std::move(positions)),
      range_(range),
      bounds_(bounds),
      grid_(std::move(grid)),
      alive_(std::move(alive)),
      offsets_(std::move(offsets)),
      adjacency_(std::move(adjacency)),
      zones_cache_(std::make_shared<ZonesCache>()) {}

UnitDiskGraph UnitDiskGraph::with_moves(const std::vector<Vec2>& new_positions,
                                        EdgeDiff* diff,
                                        TaskPool* build_pool) const {
  const std::size_t n = positions_.size();
  SPR_CHECK(new_positions.size() == n, "with_moves: ", new_positions.size(),
            " positions for ", n, " nodes");
  check_finite(new_positions, "with_moves");
  if (diff != nullptr) *diff = EdgeDiff{};

  // Which nodes actually moved (exact coordinate comparison: the waypoint
  // process hands back untouched doubles for paused nodes).
  std::vector<NodeId> moved;
  for (NodeId u = 0; u < n; ++u) {
    if (!(new_positions[u] == positions_[u])) moved.push_back(u);
  }
  if (diff != nullptr) diff->moved_nodes = moved.size();
  std::vector<Vec2> positions(new_positions);

  // Adaptive cutover: when most nodes moved (whole-field mobility epochs),
  // every neighbor list re-queries anyway, so the grid-relocation and
  // list-patching machinery is pure overhead — a from-scratch build is the
  // optimal "patch". The result is bit-identical either way (tests assert
  // both paths against fresh builds); only the edge delta still needs the
  // tandem walk.
  if (2 * moved.size() > n) {
    UnitDiskGraph fresh(positions, range_, bounds_, alive_, build_pool);
    // Whole-field motion leaves almost every quadrant row stale, so the
    // "patch" of the quadrant view is a fresh build too — done eagerly
    // because a built parent view means the safety continuation needs it.
    if (has_zones()) {
      fresh.adopt_zones(QuadrantZones::build(fresh, build_pool));
    }
    if (diff != nullptr) {
      for (NodeId u = 0; u < n; ++u) {
        auto old_list = neighbors(u);
        auto new_list = fresh.neighbors(u);
        std::size_t oi = 0, ni = 0;
        while (oi < old_list.size() || ni < new_list.size()) {
          NodeId vo = oi < old_list.size() ? old_list[oi] : kInvalidNode;
          NodeId vn = ni < new_list.size() ? new_list[ni] : kInvalidNode;
          if (vn == kInvalidNode || (vo != kInvalidNode && vo < vn)) {
            if (vo > u) diff->removed.emplace_back(u, vo);
            ++oi;
          } else if (vo == kInvalidNode || vn < vo) {
            if (vn > u) diff->added.emplace_back(u, vn);
            ++ni;
          } else {
            ++oi;
            ++ni;
          }
        }
      }
      SPR_DCHECK(edge_diff_normalized(*diff),
                 "with_moves cutover emitted a non-normalized EdgeDiff");
    }
    return fresh;
  }

  // Relocate a private copy of the grid: unmoved points keep their buckets.
  auto grid = std::make_shared<SpatialGrid>(*grid_);
  grid->relocate(moved, positions_, positions);

  if (moved.empty()) {
    UnitDiskGraph same(PatchedTag{}, std::move(positions), range_, bounds_,
                       std::move(grid), alive_, offsets_, adjacency_);
    same.zones_cache_ = zones_cache_;  // identical topology: share the view
    return same;
  }

  // Fresh neighbor lists for the moved nodes only (alive ones; dead nodes
  // stay edgeless wherever they are).
  std::vector<bool> is_moved(n, false);
  for (NodeId u : moved) is_moved[u] = true;
  std::vector<std::size_t> moved_offsets;
  std::vector<NodeId> moved_adjacency;
  fill_rows(*grid, positions, range_, alive_, moved.size(),
            [&](std::size_t i) { return moved[i]; }, build_pool, moved_offsets,
            moved_adjacency);
  auto moved_row = [&](std::size_t i) {
    return std::span<const NodeId>{moved_adjacency.data() + moved_offsets[i],
                                   moved_offsets[i + 1] - moved_offsets[i]};
  };

  // The edge delta, from a tandem walk of each moved node's old and new
  // sorted lists. Edges between two moved endpoints show up in both walks;
  // normalizing to (min, max) and deduping on the lower endpoint keeps one
  // record. Unmoved partners collect per-node patch lists.
  std::vector<std::pair<NodeId, NodeId>> drops, adds;  // (unmoved v, moved u)
  auto record = [&](std::vector<std::pair<NodeId, NodeId>>* out, NodeId u,
                    NodeId v, std::vector<std::pair<NodeId, NodeId>>& patch) {
    if (!is_moved[v]) {
      patch.emplace_back(v, u);
    } else if (v < u) {
      return;  // the walk from v records this moved-moved edge
    }
    if (out != nullptr) {
      out->emplace_back(std::min(u, v), std::max(u, v));
    }
  };
  EdgeDiff local_diff;
  EdgeDiff* d = diff != nullptr ? diff : &local_diff;
  for (std::size_t i = 0; i < moved.size(); ++i) {
    NodeId u = moved[i];
    auto old_list = neighbors(u);
    const auto new_list = moved_row(i);
    std::size_t oi = 0, ni = 0;
    while (oi < old_list.size() || ni < new_list.size()) {
      if (ni == new_list.size() ||
          (oi < old_list.size() && old_list[oi] < new_list[ni])) {
        record(&d->removed, u, old_list[oi], drops);
        ++oi;
      } else if (oi == old_list.size() || new_list[ni] < old_list[oi]) {
        record(&d->added, u, new_list[ni], adds);
        ++ni;
      } else {
        ++oi;
        ++ni;
      }
    }
  }
  std::sort(d->added.begin(), d->added.end());
  d->added.erase(std::unique(d->added.begin(), d->added.end()),
                 d->added.end());
  std::sort(d->removed.begin(), d->removed.end());
  d->removed.erase(std::unique(d->removed.begin(), d->removed.end()),
                   d->removed.end());
  SPR_DCHECK(edge_diff_normalized(*d),
             "with_moves patch path emitted a non-normalized EdgeDiff");
  std::sort(drops.begin(), drops.end());
  std::sort(adds.begin(), adds.end());

  // Assemble the patched CSR in node-id order: moved nodes take their fresh
  // lists, unmoved touched nodes merge (old minus drops) with adds, and
  // untouched nodes block-copy their old span.
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<NodeId> adjacency;
  adjacency.reserve(adjacency_.size() + 2 * d->added.size());
  std::size_t di = 0, ai = 0;
  std::size_t moved_cursor = 0;
  for (NodeId u = 0; u < n; ++u) {
    offsets[u] = adjacency.size();
    if (is_moved[u]) {
      const auto list = moved_row(moved_cursor++);
      adjacency.insert(adjacency.end(), list.begin(), list.end());
      continue;
    }
    auto old_list = neighbors(u);
    bool touched = (di < drops.size() && drops[di].first == u) ||
                   (ai < adds.size() && adds[ai].first == u);
    if (!touched) {
      adjacency.insert(adjacency.end(), old_list.begin(), old_list.end());
      continue;
    }
    std::size_t oi = 0;
    while (oi < old_list.size() || (ai < adds.size() && adds[ai].first == u)) {
      NodeId old_next = kInvalidNode;
      while (oi < old_list.size()) {
        if (di < drops.size() && drops[di].first == u &&
            drops[di].second == old_list[oi]) {
          ++di;
          ++oi;
          continue;
        }
        old_next = old_list[oi];
        break;
      }
      NodeId add_next = (ai < adds.size() && adds[ai].first == u)
                            ? adds[ai].second
                            : kInvalidNode;
      if (old_next == kInvalidNode && add_next == kInvalidNode) break;
      if (add_next == kInvalidNode ||
          (old_next != kInvalidNode && old_next < add_next)) {
        adjacency.push_back(old_next);
        ++oi;
      } else {
        adjacency.push_back(add_next);
        ++ai;
      }
    }
    while (di < drops.size() && drops[di].first == u) ++di;
  }
  offsets[n] = adjacency.size();

  UnitDiskGraph out(PatchedTag{}, std::move(positions), range_, bounds_,
                    std::move(grid), alive_, std::move(offsets),
                    std::move(adjacency));
  // Carry the quadrant view across the epoch: a row is stale iff its node
  // moved, a (old or new) neighbor moved, or its adjacency changed — and
  // adjacency only ever changes at a moved endpoint, so the moved nodes'
  // old and new neighborhoods cover every case.
  if (has_zones()) {
    std::vector<bool> stale(n, false);
    for (std::size_t i = 0; i < moved.size(); ++i) {
      NodeId u = moved[i];
      stale[u] = true;
      for (NodeId v : neighbors(u)) stale[v] = true;
      for (NodeId v : moved_row(i)) stale[v] = true;
    }
    out.adopt_zones(QuadrantZones::patch(out, *this, zones_cache_->zones, stale));
  }
  return out;
}

UnitDiskGraph UnitDiskGraph::with_failures(const std::vector<NodeId>& failed,
                                           TaskPool* /*build_pool*/) const {
  const std::size_t n = positions_.size();
  // Positions don't change under failures, so only the rows whose neighbor
  // list changed — the casualties and their ex-neighbors — go stale, in the
  // CSR and in the quadrant view alike.
  std::vector<bool> alive = alive_;
  std::vector<bool> stale(n, false);
  for (NodeId u : failed) {
    if (u >= n) continue;
    alive[u] = false;
    stale[u] = true;
    for (NodeId v : neighbors(u)) stale[v] = true;
  }
  // Patch the rows instead of re-running the radius queries: an alive
  // node's new row is its old row minus the dead (sorted order survives the
  // filter), a dead row is empty, and every other row block-copies.
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<NodeId> adjacency;
  adjacency.reserve(adjacency_.size());
  for (NodeId u = 0; u < n; ++u) {
    offsets[u] = adjacency.size();
    if (!alive[u]) continue;
    const auto row = neighbors(u);
    if (!stale[u]) {
      adjacency.insert(adjacency.end(), row.begin(), row.end());
      continue;
    }
    for (const NodeId v : row) {
      if (alive[v]) adjacency.push_back(v);
    }
  }
  offsets[n] = adjacency.size();
  // The copy shares this graph's grid: the point set never re-buckets.
  UnitDiskGraph out(PatchedTag{}, positions_, range_, bounds_, grid_,
                    std::move(alive), std::move(offsets), std::move(adjacency));
  if (has_zones()) {
    out.adopt_zones(QuadrantZones::patch(out, *this, zones_cache_->zones, stale));
  }
  return out;
}

}  // namespace spr
