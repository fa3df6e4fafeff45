#include "graph/quadrant_csr.h"

#include <cstdint>
#include <cstring>

#include "graph/unit_disk.h"
#include "util/check.h"
#include "util/task_pool.h"

namespace spr {

void QuadrantZones::bucket_row(const UnitDiskGraph& g, NodeId u,
                               std::uint32_t row_begin) {
  const Vec2 pu = g.position(u);
  auto nbrs = g.neighbors(u);

  // Stable two-pass counting split per direction: counts, then cursors,
  // then placement in id order — each bucket ends up ascending because the
  // adjacency row is.
  std::uint32_t fwd_count[4] = {0, 0, 0, 0};
  std::uint32_t rev_count[4] = {0, 0, 0, 0};
  for (NodeId v : nbrs) {
    const Vec2 pv = g.position(v);
    ++fwd_count[zone_index(zone_type(pu, pv))];
    ++rev_count[zone_index(zone_type(pv, pu))];
  }
  std::uint32_t fwd_cursor[4], rev_cursor[4];
  std::uint32_t facc = row_begin, racc = row_begin;
  const std::size_t base = static_cast<std::size_t>(u) * 4;
  for (int q = 0; q < 4; ++q) {
    fwd_cursor[q] = facc;
    facc += fwd_count[q];
    fwd_end_[base + q] = facc;
    rev_cursor[q] = racc;
    racc += rev_count[q];
    rev_end_[base + q] = racc;
  }
  for (NodeId v : nbrs) {
    const Vec2 pv = g.position(v);
    fwd_ids_[fwd_cursor[zone_index(zone_type(pu, pv))]++] = v;
    rev_ids_[rev_cursor[zone_index(zone_type(pv, pu))]++] = v;
  }
}

QuadrantZones QuadrantZones::build(const UnitDiskGraph& g, TaskPool* pool) {
  QuadrantZones z;
  const std::size_t n = g.size();
  const std::size_t edges = g.directed_edge_count();
  // Bucket ends are uint32: a larger graph would wrap them silently.
  SPR_CHECK(edges <= UINT32_MAX, "quadrant zones: ", edges,
            " directed edges overflow the uint32 bucket ends");
  z.fwd_ids_.resize(edges);
  z.rev_ids_.resize(edges);
  z.fwd_end_.resize(4 * n);
  z.rev_end_.resize(4 * n);
  parallel_for_blocked(pool, n, 512,
                       [&](std::size_t range_begin, std::size_t range_end) {
                         for (NodeId u = static_cast<NodeId>(range_begin);
                              u < static_cast<NodeId>(range_end); ++u) {
                           z.bucket_row(g, u, static_cast<std::uint32_t>(
                                                  g.neighbor_offset(u)));
                         }
                       });
  return z;
}

QuadrantZones QuadrantZones::patch(const UnitDiskGraph& g,
                                   const UnitDiskGraph& old_graph,
                                   const QuadrantZones& old_zones,
                                   const std::vector<bool>& stale) {
  QuadrantZones z;
  const std::size_t n = g.size();
  const std::size_t edges = g.directed_edge_count();
  SPR_CHECK(edges <= UINT32_MAX, "quadrant zones: ", edges,
            " directed edges overflow the uint32 bucket ends");
  SPR_DCHECK(old_zones.size() == n, "patch: old zones cover ",
             old_zones.size(), " rows, graph has ", n);
  SPR_DCHECK(stale.size() >= n, "patch: ", stale.size(),
             " stale flags for ", n, " rows");
  z.fwd_ids_.resize(edges);
  z.rev_ids_.resize(edges);
  z.fwd_end_.resize(4 * n);
  z.rev_end_.resize(4 * n);
  for (NodeId u = 0; u < n; ++u) {
    const auto row_begin = static_cast<std::uint32_t>(g.neighbor_offset(u));
    if (stale[u]) {
      z.bucket_row(g, u, row_begin);
      continue;
    }
    // Unchanged row: same ids, same zones — copy the block and shift the
    // bucket ends by however much the rows before this one grew or shrank.
    const auto old_begin =
        static_cast<std::uint32_t>(old_graph.neighbor_offset(u));
    const std::size_t deg = g.degree(u);
    SPR_DCHECK(deg == old_graph.degree(u), "patch: row ", u,
               " changed degree (", old_graph.degree(u), " -> ", deg,
               ") but is not marked stale");
    if (deg > 0) {
      std::memcpy(z.fwd_ids_.data() + row_begin,
                  old_zones.fwd_ids_.data() + old_begin, deg * sizeof(NodeId));
      std::memcpy(z.rev_ids_.data() + row_begin,
                  old_zones.rev_ids_.data() + old_begin, deg * sizeof(NodeId));
    }
    const std::size_t base = static_cast<std::size_t>(u) * 4;
    for (int q = 0; q < 4; ++q) {
      z.fwd_end_[base + q] = old_zones.fwd_end_[base + q] - old_begin + row_begin;
      z.rev_end_[base + q] = old_zones.rev_end_[base + q] - old_begin + row_begin;
    }
  }
  return z;
}

}  // namespace spr
