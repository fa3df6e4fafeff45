// Must-fire fixture: parallel callbacks writing shared state without a
// per-index slot or id-ordered merge.
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

// Every block accumulates into one captured double: the result depends
// on which thread adds first (and the writes race outright).
double racy_sum(TaskPool* pool, const std::vector<double>& xs) {
  double total = 0.0;
  parallel_for_blocked(
      pool, xs.size(), 256, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          total += xs[i];  // EXPECT[merge-ordering]
        }
      });
  return total;
}

// Concurrent push_back into one captured vector, never merged.
void racy_collect(TaskPool* pool, std::size_t n,
                  std::vector<std::size_t>& out) {
  parallel_for_blocked(
      pool, n, 64, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          out.push_back(i);  // EXPECT[merge-ordering]
        }
      });
}

// A cell grid summing into one captured total: the rounding of the sum
// depends on which cell finishes first.
double racy_cell_total(int threads, const std::vector<double>& cells) {
  double total = 0.0;
  for_each_cell(threads, cells.size(), [&](std::size_t ci) {
    total += cells[ci];  // EXPECT[merge-ordering]
  });
  return total;
}

// A mid-region atomic load snapshots scheduler state: the stored value
// depends on how far the other threads got, not on the input.
void atomic_load_leak(TaskPool* pool, std::size_t n,
                      std::atomic<std::size_t>& live,
                      std::vector<std::size_t>& out) {
  parallel_for_blocked(
      pool, n, 64, [&](std::size_t lo, std::size_t hi) {
        std::size_t snapshot = live.load();
        out[lo] = snapshot;  // EXPECT[determinism-taint]
        (void)hi;
      });
}

}  // namespace spr_fixture
