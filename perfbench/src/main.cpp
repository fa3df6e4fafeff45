/// \file main.cpp
/// One workload process of the repo benchmark:
///
///   spr_perfbench --workload sweep|stream|field --seed N --seconds S
///                 --trace 0|1 [--tiny] [--expect-digest HEX] [--tamper]
///                 [--out-dir DIR]
///
/// Prints every metric as "metric <name> <value> <unit>" and writes the
/// full result (metrics, checks, digest, provenance) to
/// DIR/<workload>-seed<N>-trace<0|1>.json; a traced run also writes its
/// spans to DIR/<workload>-seed<N>.trace.json (Chrome Trace Event format).
/// perfbench/run.py builds this binary and turns the result into the
/// benchmark's one-line summary.

#include <sched.h>
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "bench.h"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: spr_perfbench --workload sweep|stream|field "
               "--seed N --seconds S --trace 0|1 [--tiny] "
               "[--expect-digest HEX] [--tamper] [--out-dir DIR]\n",
               message);
  return 2;
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
  return CPU_COUNT(&set);
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::Options;
  Options options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--tiny") {
      options.tiny = true;
    } else if (arg == "--tamper") {
      options.tamper = true;
    } else {
      const char* v = value();
      if (v == nullptr) return usage(("missing value for " + arg).c_str());
      char* end = nullptr;
      if (arg == "--workload") {
        options.workload = v;
      } else if (arg == "--seed") {
        options.seed = std::strtoull(v, &end, 10);
        if (*end != '\0') return usage("bad --seed");
      } else if (arg == "--seconds") {
        options.seconds = std::strtod(v, &end);
        if (*end != '\0' || !(options.seconds > 0.0)) return usage("bad --seconds");
      } else if (arg == "--trace") {
        if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0) {
          return usage("--trace takes 0 or 1");
        }
        options.trace = v[0] == '1';
      } else if (arg == "--expect-digest") {
        options.expect_digest = v;
      } else if (arg == "--out-dir") {
        options.out_dir = v;
      } else {
        return usage(("unknown option " + arg).c_str());
      }
    }
  }
  if (options.workload != "sweep" && options.workload != "stream" &&
      options.workload != "field") {
    return usage("--workload must be sweep, stream or field");
  }

  // Guard: timings from an unoptimised build, or pools oversubscribing the
  // machine, are not numbers anyone should compare.
#ifndef __OPTIMIZE__
  std::fprintf(stderr, "error: the benchmark needs an optimised build (got %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  const int cpus = online_cpus();
  if (cpus < perfbench::kPoolThreads) {
    std::fprintf(stderr,
                 "error: %d CPU(s) online, below the benchmark's %d-thread pools\n",
                 cpus, perfbench::kPoolThreads);
    return 3;
  }

  using spr::JsonValue;
  perfbench::Result result;
  JsonValue provenance = JsonValue::object();
  provenance.set("nproc", JsonValue::of(cpus));
  provenance.set("build_type", JsonValue::of(PERFBENCH_BUILD_TYPE));
  provenance.set("compiler", JsonValue::of(PERFBENCH_COMPILER));
  provenance.set("flags", JsonValue::of(PERFBENCH_FLAGS));
  provenance.set("threads", JsonValue::of(perfbench::kPoolThreads));
  result.set("provenance", std::move(provenance));
  result.set("workload", JsonValue::of(options.workload));
  result.set("seed", JsonValue::of(options.seed));
  result.set("size", JsonValue::of(options.tiny ? "tiny" : "full"));
  result.set("trace", JsonValue::of(options.trace));

  if (options.trace) perfbench::Tracer::instance().enable();
  mkdir(options.out_dir.c_str(), 0755);
  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  int rc = 0;
  if (options.workload == "sweep") {
    rc = perfbench::run_sweep(options, result);
  } else if (options.workload == "stream") {
    rc = perfbench::run_stream(options, result);
  } else {
    rc = perfbench::run_field(options, result);
  }
  result.check_digest(options.expect_digest);
  if (options.trace) {
    const std::string trace_path = stem + ".trace.json";
    if (perfbench::Tracer::instance().write_chrome_trace(trace_path)) {
      result.set("trace_file", JsonValue::of(trace_path));
    } else {
      result.note("could not write " + trace_path);
    }
  }
  result.metric("error_rate",
                result.attempted() == 0
                    ? 1.0
                    : static_cast<double>(result.failed()) /
                          static_cast<double>(result.attempted()),
                "ratio");
  result.print();

  const std::string path = stem + "-trace" + (options.trace ? "1" : "0") + ".json";
  std::ofstream out(path);
  out << result.to_json().dump() << "\n";
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("result file: %s\n", path.c_str());
  return rc;
}
