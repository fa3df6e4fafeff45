#!/usr/bin/env python3
"""Self-test of the repo benchmark: proves it measures and fails when it should.

    python3 perfbench/selftest.py

Runs every workload at tiny size (seconds each), untraced and traced, and
asserts that every named end-to-end and per-layer metric is printed with its
unit, that error_rate is 0, and that the trace file is valid Chrome Trace
Event JSON. Then it corrupts the expected digest of each workload, and
tampers with the field's labeling, and asserts that error_rate rises above
0 each time. Exits non-zero on the first failed assertion.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END = {
    "sweep": ["setup_s", "peak_rss_mb", "error_rate", "job_s", "cells_per_s"],
    "stream": ["setup_s", "peak_rss_mb", "error_rate", "job_s", "flights_per_s"],
    "field": ["setup_s", "peak_rss_mb", "error_rate", "job_s", "label_s", "wave_ms",
              "epoch_ms", "tiles_s"],
}
COMMON_LAYERS = ["proc.cpu_s", "proc.busy_share", "proc.vol_ctx_switches", "proc.minor_faults",
                 "trace.coverage", "trace.unattributed", "trace.overhead",
                 "deploy.deploy_ms", "graph.build_ms", "graph.zones_ms", "safety.label_ms"]
PER_LAYER = {
    "sweep": ["experiment.cell_ms", "experiment.cell_tail_ms", "experiment.pair_draw_ms",
              "experiment.pairs_routed", "graph.overlay_ms", "graph.oracle_ms",
              "graph.oracle_searches", "safety.unsafe_nodes", "routing.boundhole_ms",
              "routing.boundhole_builds", "routing.gf_ms", "routing.lgf_ms", "routing.slgf_ms",
              "routing.slgf2_ms", "routing.hops", "routing.local_minima", "sim.repeat_share",
              "routing.boundhole_cells_ia_share", "routing.boundhole_cells_fa_share"],
    "stream": ["graph.with_failures_ms", "graph.with_moves_ms", "graph.edges_changed",
               "graph.oracle_ms", "graph.oracle_searches", "safety.failures_ms", "safety.seeds",
               "safety.reevaluations", "safety.flips", "safety.moves_ms", "safety.promotions",
               "safety.arena_high_water_bytes", "routing.router_build_ms", "sim.run_ms",
               "sim.self_ms", "sim.events", "sim.replans", "sim.barriers", "sim.repeat_share",
               "mobility.advance_ms", "mobility.moved_nodes"],
    "field": ["graph.with_failures_ms", "graph.with_moves_ms", "graph.edges_changed",
              "safety.unsafe_nodes", "safety.failures_ms", "safety.seeds",
              "safety.reevaluations", "safety.flips", "safety.moves_ms", "safety.promotions",
              "safety.arena_high_water_bytes", "shard.build_ms", "shard.label_ms",
              "shard.failures_ms", "shard.moves_ms", "shard.exchange_rounds",
              "shard.halo_demotions"],
}
# Derived figures, not spans: they have no wait time of their own.
NO_WAIT = {"experiment.cell_tail_ms", "sim.self_ms"}
METRIC = re.compile(r"^metric (\S+)\s+(\S+) (\S+)$")


def run(workload, *extra, trace=0):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}")
    printed = {}
    for line in proc.stdout.splitlines():
        m = METRIC.match(line)
        if m:
            printed[m.group(1)] = (float(m.group(2)), m.group(3))
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return printed, summary


def expect(condition, message):
    if not condition:
        raise SystemExit("FAIL: " + message)
    print("ok:", message)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in ("sweep", "stream", "field"):
        printed, summary = run(workload)
        for name in END_TO_END[workload]:
            expect(name in printed and printed[name][1], f"{workload} prints {name} with a unit")
        expect(printed["error_rate"][0] == 0 and summary["correct"] and summary["failed"] == 0,
               f"{workload} error_rate is 0")
        expect(set(summary["metrics"]) == {m["name"] for m in spec["end_to_end"]},
               f"{workload} summary holds every end_to_end metric")

        printed, summary = run(workload, trace=1)
        for name in COMMON_LAYERS + PER_LAYER[workload]:
            expect(name in printed and printed[name][1], f"traced {workload} prints {name}")
            if name.endswith("_ms") and name not in NO_WAIT:
                wait = name[:-3] + "_wait_ms"
                expect(wait in printed, f"traced {workload} prints {wait}")
        expect(summary["correct"], f"traced {workload} passes its checks")
        expect(set(summary["metrics"]) == {m["name"] for m in spec["per_layer"]},
               f"traced {workload} summary holds every per_layer metric")
        trace = json.loads((ROOT / ".bench_out" / f"{workload}-seed1.trace.json").read_text())
        events = trace["traceEvents"]
        expect(events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
               f"{workload} trace is Chrome Trace Event JSON")

        printed, summary = run(workload, "--expect-digest", "0000000000000000")
        expect(printed["error_rate"][0] > 0 and not summary["correct"],
               f"{workload} with a corrupted expected digest raises error_rate")

    printed, summary = run("field", "--tamper")
    expect(printed["error_rate"][0] > 0 and not summary["correct"],
           "field with a tampered labeling raises error_rate")
    print("selftest passed")


if __name__ == "__main__":
    main()
