// Must-fire fixture for the line rules. EXPECT markers name the finding
// the harness asserts on that line.
#include <chrono>
#include <cstdlib>
#include <random>
#include <unordered_map>

namespace lint_fixture {

void wallclock_leak() {
  auto stamp = std::chrono::system_clock::now();  // EXPECT[wallclock]
  (void)stamp;
}

int thread_stamp();
void thread_leak() {
  auto id = std::this_thread::get_id();  // EXPECT[wallclock]
  (void)id;
}

int unseeded() {
  std::random_device rd;  // EXPECT[raw-rng]
  std::mt19937 gen(rd());  // EXPECT[raw-rng]
  return rand();  // EXPECT[raw-rng]
}

int* leaky() {
  int* p = new int(7);  // EXPECT[raw-new]
  delete p;  // EXPECT[raw-new]
  return nullptr;
}

int hash_order_sum() {
  std::unordered_map<int, int> counts;
  counts[1] = 2;
  int sum = 0;
  for (const auto& kv : counts) {  // EXPECT[unordered-iter]
    sum += kv.second;
  }
  return sum;
}

// An unordered type behind a same-file alias, iterated through a member.
using Cache = std::unordered_map<int, double>;

struct Node {
  Cache cache;
};

double cached_sum(const Node& node, const Node* p, const Cache& c) {
  double sum = 0.0;
  for (const auto& kv : node.cache) {  // EXPECT[unordered-iter]
    sum += kv.second;
  }
  for (const auto& kv : p->cache) sum += kv.second;  // EXPECT[unordered-iter]
  for (const auto& kv : c) sum += kv.second;  // EXPECT[unordered-iter]
  return sum;
}

// A range-for header wrapped after its colon, as clang-format wraps a long
// one, over a local and over a parameter.
int wrapped_sum(const std::unordered_map<int, int>& weights_by_node_id) {
  std::unordered_map<int, int> counts_by_node_id;
  int sum = 0;
  for (const auto& [node_id, count_for_node] :  // EXPECT[unordered-iter]
       counts_by_node_id) {
    sum += node_id + count_for_node;
  }
  for (const auto& [node_id, weight_for_node] :  // EXPECT[unordered-iter]
       weights_by_node_id) {
    sum += node_id + weight_for_node;
  }
  return sum;
}

void pointer_stamp(int* p) {
  std::printf("%p\n", static_cast<void*>(p));  // EXPECT[wallclock]
}

}  // namespace lint_fixture
