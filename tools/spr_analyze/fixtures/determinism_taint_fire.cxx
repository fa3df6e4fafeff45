// Must-fire fixture: nondeterministic values reaching report sinks.
#include <chrono>
#include <thread>
#include <unordered_map>

namespace spr_fixture {

struct Report {
  void param(const char* name, double v);
  void note(const char* text);
};

// Wall clock flowing through a local into a report parameter.
void timing_into_report(Report& report) {
  auto t0 = std::chrono::steady_clock::now();
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  report.param("seconds", seconds);  // EXPECT[determinism-taint]
}

// Interprocedural-lite: a function whose return value is tainted taints
// its call sites.
double stopwatch() {
  auto t = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

void indirect(Report& report) {
  double v = stopwatch();
  report.param("v", v);  // EXPECT[determinism-taint]
}

// Unordered-container iteration order is load-factor/seed dependent.
void unordered_iter(Report& report,
                    const std::unordered_map<int, double>& scores) {
  for (const auto& kv : scores) {  // EXPECT[unordered-iter]
    report.param("score", kv.second);  // EXPECT[determinism-taint]
  }
}

// A thread id stamped straight into the artifact.
void thread_stamp(Report& report) {
  report.param("tid",  // EXPECT[determinism-taint]
               static_cast<double>(std::hash<std::thread::id>{}(
                   std::this_thread::get_id())));  // EXPECT[wallclock]
}

}  // namespace spr_fixture
