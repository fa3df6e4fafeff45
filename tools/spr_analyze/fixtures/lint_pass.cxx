// Must-pass fixture: the sanctioned counterparts of every line rule.
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <unordered_map>

namespace lint_fixture {

// steady_clock durations for console timing are allowed (only the
// wall-clock family that can stamp artifacts is banned).
double elapsed(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Ownership through smart pointers, not raw new/delete.
std::unique_ptr<int> owned() { return std::make_unique<int>(7); }

// Keyed lookups into unordered containers are fine; only iteration
// leaks hash order.
int lookup(const std::unordered_map<int, int>& counts, int key) {
  auto it = counts.find(key);
  return it == counts.end() ? 0 : it->second;
}

// Ordered iteration is deterministic.
int ordered_sum(const std::map<int, int>& counts) {
  int sum = 0;
  for (const auto& kv : counts) sum += kv.second;
  return sum;
}

// ...also when the header wraps after its colon.
int wrapped_ordered_sum(const std::map<int, int>& counts_by_node_id) {
  int sum = 0;
  for (const auto& [node_id, count_for_node] :
       counts_by_node_id) {
    sum += node_id + count_for_node;
  }
  return sum;
}

// Integer formats are fine; only %p prints an address.
void print_size(std::size_t n) { std::printf("%zu\n", n); }

}  // namespace lint_fixture
