// Must-pass fixture: the sanctioned parallel write disciplines.
#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <vector>

namespace spr_fixture {

struct TaskPool {};
void parallel_for_blocked(TaskPool* pool, std::size_t n, std::size_t grain,
                          const std::function<void(std::size_t,
                                                   std::size_t)>& fn);
void for_each_cell(int threads, std::size_t count,
                   const std::function<void(std::size_t)>& fn);

// Disjoint per-index slots: each iteration owns out[i].
void per_slot(TaskPool* pool, std::vector<double>& out,
              const std::vector<double>& xs) {
  parallel_for_blocked(
      pool, xs.size(), 256, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out[i] = xs[i] * 2.0;
        }
      });
}

// Block-local scratch, parked in a per-block slot keyed by the range.
void per_block(TaskPool* pool, std::size_t n,
               std::vector<std::vector<std::size_t>>& blocks) {
  parallel_for_blocked(
      pool, n, 64, [&](std::size_t lo, std::size_t hi) {
        std::vector<std::size_t> local;
        for (std::size_t i = lo; i < hi; ++i) {
          if (i % 3 == 0) local.push_back(i);
        }
        blocks[lo / 64] = std::move(local);
      });
}

// Atomic read-modify-write counters are schedule-safe.
std::size_t atomic_count(TaskPool* pool, std::size_t n) {
  std::atomic<std::size_t> hits{0};
  parallel_for_blocked(
      pool, n, 64, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          hits.fetch_add(1, std::memory_order_relaxed);
        }
      });
  return hits.load();
}

// A reference alias of a per-index slot inherits the slot's disjointness
// (the sharded-network Tile& idiom).
struct Tile {
  std::vector<unsigned> inbox;
};

void tile_local(TaskPool* pool, std::vector<Tile>& tiles) {
  parallel_for_blocked(
      pool, tiles.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
          Tile& tile = tiles[t];
          tile.inbox.clear();
          tile.inbox.push_back(static_cast<unsigned>(t));
        }
      });
}

// A cell grid filling each cell through a reference to its own slot (the
// sweep's SliceCell& idiom); the caller reduces in cell order.
struct Cell {
  double value = 0.0;
};

double cell_slots(int threads, std::vector<Cell>& cells) {
  for_each_cell(threads, cells.size(), [&](std::size_t ci) {
    Cell& cell = cells[ci];
    cell.value = static_cast<double>(ci) * 2.0;
  });
  double total = 0.0;
  for (const Cell& cell : cells) total += cell.value;
  return total;
}

}  // namespace spr_fixture
