#include "bench.h"

#include <sys/resource.h>
#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "safety/labeling.h"

namespace perfbench {

namespace {
const auto kProcessStart = std::chrono::steady_clock::now();
thread_local Tracer::ThreadBuffer* tls_buffer = nullptr;
}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kProcessStart)
      .count();
}

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

ProcCounters proc_counters() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  ProcCounters c;
  c.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
  c.vol_ctx_switches = static_cast<double>(usage.ru_nvcsw);
  c.minor_faults = static_cast<double>(usage.ru_minflt);
  c.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
  return c;
}

void ProcTotals::start() {
  start_ = proc_counters();
  start_s_ = now_s();
}

void ProcTotals::stop() {
  const ProcCounters end = proc_counters();
  wall_s_ += now_s() - start_s_;
  sum_.cpu_s += end.cpu_s - start_.cpu_s;
  sum_.vol_ctx_switches += end.vol_ctx_switches - start_.vol_ctx_switches;
  sum_.minor_faults += end.minor_faults - start_.minor_faults;
  ++jobs_;
}

void ProcTotals::report(Result& result) const {
  const double jobs = static_cast<double>(std::max<std::size_t>(jobs_, 1));
  result.metric("proc.cpu_s", sum_.cpu_s / jobs, "s");
  result.metric("proc.busy_share", wall_s_ > 0 ? sum_.cpu_s / (wall_s_ * kPoolThreads) : 0.0,
                "share");
  result.metric("proc.vol_ctx_switches", sum_.vol_ctx_switches / jobs, "count");
  result.metric("proc.minor_faults", sum_.minor_faults / jobs, "count");
}

void run_jobs(const Options& options, const std::function<void(int, bool)>& job) {
  const double begin = now_s();
  for (int k = 0;; ++k) {
    const bool traced = options.trace && k % 2 == 1;
    if (!traced && k > 0 && now_s() - begin >= options.seconds) return;
    job(options.trace ? k / 2 : k, traced);
  }
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + tag * 0xD1B54A32D192ED03ULL +
                    0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

spr::DeploymentConfig scaled_fa_config(int nodes) {
  spr::DeploymentConfig config;
  config.node_count = nodes;
  config.model = spr::DeployModel::kForbiddenAreas;
  const double scale = std::sqrt(static_cast<double>(nodes) / 600.0);
  if (scale > 1.0) {
    config.field =
        spr::Rect::from_bounds({0.0, 0.0}, {200.0 * scale, 200.0 * scale});
    config.min_forbidden_extent *= scale;
    config.max_forbidden_extent *= scale;
    config.forbidden_margin *= scale;
  }
  return config;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(state_));
  return buf;
}

void digest_safety(Digest& digest, const spr::SafetyInfo& info) {
  digest.add(info.size());
  for (spr::NodeId u = 0; u < info.size(); ++u) {
    const spr::SafetyTuple& t = info.tuple(u);
    for (int k = 0; k < 4; ++k) {
      const auto i = static_cast<std::size_t>(k);
      digest.add(t.safe[i]);
      if (t.safe[i]) continue;
      digest.add(t.anchors[i].first);
      digest.add(t.anchors[i].last);
      digest.add(t.anchors[i].first_pos.x);
      digest.add(t.anchors[i].first_pos.y);
      digest.add(t.anchors[i].last_pos.x);
      digest.add(t.anchors[i].last_pos.y);
    }
  }
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<std::size_t>(rank) - 1);
  return values[index];
}

// ------------------------------------------------------------------ tracer

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuffer& Tracer::local() {
  if (tls_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->thread = static_cast<int>(buffers_.size()) - 1;
    tls_buffer = buffers_.back().get();
  }
  return *tls_buffer;
}

std::vector<SpanRecord> Tracer::spans() const {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& buffer : buffers_) {
    all.insert(all.end(), buffer->records.begin(), buffer->records.end());
  }
  std::sort(all.begin(), all.end(), [](const SpanRecord& a, const SpanRecord& b) {
    return a.start != b.start ? a.start < b.start : a.id < b.id;
  });
  return all;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  char line[512];
  for (const SpanRecord& s : spans()) {
    const std::string name = s.name;
    const std::string layer = name.substr(0, name.find('.'));
    std::snprintf(line, sizeof line,
                  "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                  "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                  "\"parent\":%d,\"group\":%llu,\"cpu_us\":%.3f}}",
                  first ? "" : ",\n", s.name, layer.c_str(), s.thread,
                  s.start * 1e6, (s.end - s.start) * 1e6, s.id, s.parent,
                  static_cast<unsigned long long>(s.group), s.cpu * 1e6);
    out << line;
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(const char* name, std::uint64_t group) {
  Tracer& tracer = Tracer::instance();
  if (!tracer.enabled()) return;
  Tracer::ThreadBuffer& buffer = tracer.local();
  SpanRecord record;
  record.name = name;
  record.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  record.thread = buffer.thread;
  if (buffer.open.empty()) {
    record.parent = buffer.root_parent;
    record.group = group != 0 ? group : buffer.group;
  } else {
    const SpanRecord& parent = buffer.records[static_cast<std::size_t>(buffer.open.back())];
    record.parent = parent.id;
    record.group = group != 0 ? group : buffer.group != 0 ? buffer.group : parent.group;
  }
  id_ = record.id;
  index_ = static_cast<int>(buffer.records.size());
  buffer.records.push_back(record);
  buffer.open.push_back(index_);
  cpu_start_ = thread_cpu_s();
  buffer.records.back().start = now_s();
}

Span::~Span() {
  if (index_ < 0) return;
  const double end = now_s();
  Tracer::ThreadBuffer& buffer = Tracer::instance().local();
  SpanRecord& record = buffer.records[static_cast<std::size_t>(index_)];
  record.end = end;
  record.cpu = thread_cpu_s() - cpu_start_;
  buffer.open.pop_back();
}

TaskScope::TaskScope(int parent, std::uint64_t group) {
  Tracer::ThreadBuffer& buffer = Tracer::instance().local();
  saved_parent_ = buffer.root_parent;
  saved_group_ = buffer.group;
  buffer.root_parent = parent;
  buffer.group = group;
}

TaskScope::~TaskScope() {
  Tracer::ThreadBuffer& buffer = Tracer::instance().local();
  buffer.root_parent = saved_parent_;
  buffer.group = saved_group_;
}

namespace {
bool is_root(const SpanRecord& s) { return std::string_view(s.name).rfind("job", 0) == 0; }
}  // namespace

void add_window(Budget& budget, const std::vector<SpanRecord>& spans,
                double begin, double end, bool job) {
  std::vector<const SpanRecord*> inside;
  std::map<int, double> child_time;  // parent id -> summed child durations
  for (const SpanRecord& s : spans) {
    if (is_root(s) || s.start < begin || s.end > end) continue;
    inside.push_back(&s);
    child_time[s.parent] += s.end - s.start;
  }
  for (const SpanRecord* s : inside) {
    LayerRow& row = budget.rows[s->name];
    const double duration = s->end - s->start;
    ++row.calls;
    row.busy_s += duration;
    row.wait_s += std::max(0.0, duration - s->cpu);
    auto it = child_time.find(s->id);
    row.self_s += duration - (it == child_time.end() ? 0.0 : it->second);
    row.durations.push_back(duration);
  }
  if (!job) return;
  budget.wall_s += end - begin;
  // Union of the intervals (inside is sorted by start).
  double covered = 0.0, run_begin = 0.0, run_end = -1.0;
  for (const SpanRecord* s : inside) {
    if (s->start > run_end) {
      if (run_end > run_begin) covered += run_end - run_begin;
      run_begin = s->start;
      run_end = s->end;
    } else {
      run_end = std::max(run_end, s->end);
    }
  }
  if (run_end > run_begin) covered += run_end - run_begin;
  budget.covered_s += covered;
}

void report_calls(Result& result, const std::map<std::string, LayerRow>& rows) {
  for (const auto& [name, row] : rows) {
    const double calls = static_cast<double>(std::max<std::size_t>(row.calls, 1));
    result.metric(name + "_ms", 1e3 * row.busy_s / calls, "ms");
    result.metric(name + "_wait_ms", 1e3 * row.wait_s / calls, "ms");
  }
}

void report_layers(Result& result, Budget budget,
                   std::initializer_list<const char*> expected) {
  for (const char* name : expected) budget.rows[name];
  const double capacity = budget.wall_s * budget.lanes;
  double attributed = 0.0;
  std::printf("\nlayer budget: %.4f s end-to-end wall x %d lane(s)\n",
              budget.wall_s, budget.lanes);
  std::printf("  %-26s %8s %10s %8s %8s %8s\n", "span", "calls", "ms/call",
              "busy", "wait", "self");
  report_calls(result, budget.rows);
  for (const auto& [name, row] : budget.rows) {
    const double calls = static_cast<double>(std::max<std::size_t>(row.calls, 1));
    result.metric(name + "_share", capacity > 0 ? row.self_s / capacity : 0.0,
                  "share");
    attributed += row.self_s;
    std::printf("  %-26s %8zu %10.3f %7.1f%% %7.1f%% %7.1f%%\n", name.c_str(),
                row.calls, 1e3 * row.busy_s / calls,
                capacity > 0 ? 100.0 * row.busy_s / capacity : 0.0,
                capacity > 0 ? 100.0 * row.wait_s / capacity : 0.0,
                capacity > 0 ? 100.0 * row.self_s / capacity : 0.0);
  }
  const double unattributed = capacity > 0 ? 1.0 - attributed / capacity : 0.0;
  const double coverage = budget.wall_s > 0 ? budget.covered_s / budget.wall_s : 0.0;
  std::printf("  %-26s %38.1f%%\n", "(unattributed)", 100.0 * unattributed);
  std::printf("  span coverage of wall time: %.1f%%\n", 100.0 * coverage);
  result.metric("trace.unattributed", unattributed, "share");
  result.metric("trace.coverage", coverage, "share");
}

// ------------------------------------------------------------------ result

void Result::metric(const std::string& name, double value, const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Result::check(bool ok, std::size_t affected, const std::string& what) {
  if (ok) return;
  failed_ += affected;
  note("CHECK FAILED: " + what);
}

void Result::note(const std::string& text) {
  if (notes_.size() < 50) notes_.push_back(text);
}

void Result::set(const std::string& key, spr::JsonValue value) {
  extra_.set(key, std::move(value));
}

void Result::samples(const std::string& name, const std::vector<double>& values) {
  spr::JsonValue list = spr::JsonValue::array();
  for (double v : values) list.push(spr::JsonValue::of(v));
  samples_.set(name, std::move(list));
  sample_counts_.emplace_back(name, values.size());
}

void Result::check_digest(const std::string& expected) {
  if (expected.empty()) return;
  if (expected != digest_) {
    failed_ = attempted_;
    note("CHECK FAILED: digest " + digest_ + " != expected " + expected);
  }
}

spr::JsonValue Result::to_json() const {
  using spr::JsonValue;
  JsonValue root = extra_;
  JsonValue metrics = JsonValue::object();
  for (const Metric& m : metrics_) {
    JsonValue entry = JsonValue::object();
    entry.set("value", JsonValue::of(m.value));
    entry.set("unit", JsonValue::of(m.unit));
    metrics.set(m.name, std::move(entry));
  }
  root.set("metrics", std::move(metrics));
  root.set("samples", samples_);
  root.set("attempted", JsonValue::of(static_cast<std::uint64_t>(attempted_)));
  root.set("failed", JsonValue::of(static_cast<std::uint64_t>(failed())));
  root.set("digest", JsonValue::of(digest_));
  JsonValue notes = JsonValue::array();
  for (const auto& n : notes_) notes.push(JsonValue::of(n));
  root.set("notes", std::move(notes));
  return root;
}

void Result::print() const {
  std::printf("\n");
  for (const Metric& m : metrics_) {
    std::printf("metric %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, count] : sample_counts_) {
    std::printf("samples behind %s: %zu\n", name.c_str(), count);
  }
  std::printf("checked operations: %zu, failed: %zu, digest %s\n", attempted_,
              failed(), digest_.c_str());
  for (const auto& n : notes_) std::printf("note: %s\n", n.c_str());
}

}  // namespace perfbench
