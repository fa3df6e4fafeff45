#pragma once

/// \file bench.h
/// Shared pieces of the repo benchmark: options, the span tracer, process
/// counters, digests and the result record every workload fills in.
///
/// Spans are recorded only by this benchmark's own code, around calls into
/// the library's public functions. They are off unless a run asks for the
/// trace (`--trace 1`); the untraced path calls the library the same way
/// without a single span.

#include <algorithm>
#include <atomic>
#include <initializer_list>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "deploy/deployment.h"
#include "util/json.h"

namespace spr {
class SafetyInfo;
}

namespace perfbench {

/// Command-line options of one workload process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;           ///< tiny sizes for the self-test
  std::string expect_digest;   ///< empty: no stored digest to compare
  bool tamper = false;         ///< corrupt one output to prove checks fire
  std::string out_dir = ".bench_out";
};

/// Worker threads every pool of the benchmark uses.
inline constexpr int kPoolThreads = 4;

/// Seconds on a monotonic clock since the process started.
double now_s();
/// CPU seconds consumed by the calling thread.
double thread_cpu_s();

class Result;

/// Process-wide resource counters (getrusage).
struct ProcCounters {
  double cpu_s = 0.0;
  double vol_ctx_switches = 0.0;
  double minor_faults = 0.0;
  double peak_rss_mb = 0.0;
};
ProcCounters proc_counters();

/// Process counters summed over the measured windows of a run's jobs.
class ProcTotals {
 public:
  void start();
  void stop();
  /// proc.cpu_s, proc.vol_ctx_switches and proc.minor_faults per job, and
  /// proc.busy_share: CPU time over the windows' wall time times the pool.
  void report(Result& result) const;

 private:
  ProcCounters start_{}, sum_{};
  double start_s_ = 0.0, wall_s_ = 0.0;
  std::size_t jobs_ = 0;
};

/// Runs jobs until `options.seconds` have passed, calling
/// `job(draw, traced)`. Without --trace every job is untraced and draw k is
/// job k; with it each untraced job is followed by a traced job on the
/// same draw, so a run always ends on a traced job.
void run_jobs(const Options& options, const std::function<void(int, bool)>& job);

/// SplitMix-style mixing of the run seed with a tag, so each input stream
/// of a workload is a pure function of `--seed`.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// Deployment seed of the stream and field workloads' one field. Their
/// cost depends mostly on the field's holes, so the field stays fixed and
/// `--seed` draws everything that happens on it.
inline constexpr std::uint64_t kFieldSeed = 2009;

/// A forbidden-area deployment config whose field side grows with
/// sqrt(n/600), holding the paper's mean degree constant (the scaling rule
/// of bench_micro and the tile-scaling scenario).
spr::DeploymentConfig scaled_fa_config(int nodes);

/// 64-bit FNV-1a over the bytes of plain values.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      state_ = (state_ ^ bytes[i]) * 0x100000001B3ULL;
    }
  }
  void add_values(const std::vector<double>& values) {
    add(values.size());
    for (double v : values) add(v);
  }
  std::string hex() const;

 private:
  std::uint64_t state_ = 0xCBF29CE484222325ULL;
};

/// Adds every status and shape anchor of a labeling to `digest`.
void digest_safety(Digest& digest, const spr::SafetyInfo& info);

/// Median of a sample (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100] (0 when empty).
double percentile(std::vector<double> values, double p);

// ------------------------------------------------------------------ tracer

/// One finished span.
struct SpanRecord {
  const char* name = "";
  double start = 0.0;  ///< now_s() at entry
  double end = 0.0;
  double cpu = 0.0;    ///< calling thread's CPU seconds inside the span
  int id = 0;
  int parent = -1;     ///< enclosing span id (-1 for a root)
  int thread = 0;      ///< small per-thread index
  std::uint64_t group = 0;  ///< shared id of one cell, barrier or stage
};

/// Process-wide span store: per-thread buffers, merged when read.
class Tracer {
 public:
  /// One thread's spans and its open-span stack.
  struct ThreadBuffer {
    int thread = 0;
    std::vector<SpanRecord> records;
    std::vector<int> open;  ///< indices into `records`
    int root_parent = -1;   ///< parent of this thread's root spans
    std::uint64_t group = 0;
  };

  static Tracer& instance();

  void enable() { enabled_.store(true, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Every span recorded so far, ordered by start time.
  std::vector<SpanRecord> spans() const;

  /// Writes the spans as Chrome Trace Event JSON (Perfetto and
  /// chrome://tracing open it as is). Returns false on an I/O error.
  bool write_chrome_trace(const std::string& path) const;

 private:
  friend class Span;
  friend class TaskScope;
  ThreadBuffer& local();

  std::atomic<bool> enabled_{false};
  std::atomic<int> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// RAII span around one call into the library. A no-op unless the tracer
/// is enabled. `group` 0 inherits the enclosing span's group.
class Span {
 public:
  explicit Span(const char* name, std::uint64_t group = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const noexcept { return id_; }

 private:
  int index_ = -1;  ///< slot in the thread buffer; -1 when disabled
  int id_ = -1;
  double cpu_start_ = 0.0;
};

/// For the scope's lifetime, spans opened on this thread get `group`, and
/// those opened with no enclosing span (on a pool worker) get `parent`.
class TaskScope {
 public:
  TaskScope(int parent, std::uint64_t group);
  ~TaskScope();
  TaskScope(const TaskScope&) = delete;
  TaskScope& operator=(const TaskScope&) = delete;

 private:
  int saved_parent_;
  std::uint64_t saved_group_;
};

/// Per-span-name totals over the traced jobs.
struct LayerRow {
  std::size_t calls = 0;
  double busy_s = 0.0;  ///< summed inclusive durations
  double wait_s = 0.0;  ///< summed (duration - thread CPU), clamped at 0
  double self_s = 0.0;  ///< summed durations minus child-span coverage
  std::vector<double> durations;
};

/// The layer budget of one or more traced jobs: rows per span name, and
/// the end-to-end wall time they are shares of. Span names that start
/// with "job" are roots and never rows.
struct Budget {
  std::map<std::string, LayerRow> rows;
  double wall_s = 0.0;     ///< summed job wall times
  double covered_s = 0.0;  ///< summed union of span intervals per job
  int lanes = 1;           ///< threads the jobs' spans run on
};

/// Adds the spans lying inside [begin, end] to `budget.rows`. With
/// `job` true the window is one job: its length joins `wall_s` and the
/// union of its span intervals joins `covered_s`.
void add_window(Budget& budget, const std::vector<SpanRecord>& spans,
                double begin, double end, bool job = true);

// ------------------------------------------------------------------ result

/// What a workload hands back to main: metrics with units, check tallies,
/// digests and the layer budget.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Counts `n` more checked operations (cells, flights or field stages).
  void operations(std::size_t n) { attempted_ += n; }
  /// One check over `affected` operations: when `ok` is false they count
  /// as failed and `what` is kept as a note.
  void check(bool ok, std::size_t affected, const std::string& what);
  void note(const std::string& text);
  void set_digest(const std::string& digest) { digest_ = digest; }
  void set(const std::string& key, spr::JsonValue value);
  /// Keeps the samples behind a median metric (written to the result
  /// file; their count is printed).
  void samples(const std::string& name, const std::vector<double>& values);

  std::size_t attempted() const { return attempted_; }
  std::size_t failed() const { return std::min(failed_, attempted_); }
  const std::string& digest() const { return digest_; }

  /// Compares the run's digest with `expected` (when non-empty); a
  /// mismatch fails every operation of the run.
  void check_digest(const std::string& expected);

  spr::JsonValue to_json() const;
  /// Prints every metric as "metric <name> <value> <unit>", then the notes.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::string digest_;
  spr::JsonValue extra_ = spr::JsonValue::object();
  spr::JsonValue samples_ = spr::JsonValue::object();
  std::vector<std::pair<std::string, std::size_t>> sample_counts_;
};

/// Adds `<name>_ms` and `<name>_wait_ms` (means per call) for each row.
void report_calls(Result& result, const std::map<std::string, LayerRow>& rows);

/// Adds the budget to `result`: per span name `<name>_ms` and
/// `<name>_wait_ms` (means per call) and `<name>_share` (self time over
/// `wall_s * lanes`), plus `trace.unattributed` and `trace.coverage`.
/// Prints each layer's busy, wait and self shares. Span names in
/// `expected` the jobs never opened are reported as zero.
void report_layers(Result& result, Budget budget,
                   std::initializer_list<const char*> expected);

// --------------------------------------------------------------- workloads

int run_sweep(const Options& options, Result& result);
int run_stream(const Options& options, Result& result);
int run_field(const Options& options, Result& result);

}  // namespace perfbench
