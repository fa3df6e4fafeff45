#!/usr/bin/env python3
"""The repo benchmark: builds perfbench/ from source and runs its workloads.

    python3 perfbench/run.py --workload sweep|stream|field|all --seed N \
        --seconds S --trace 0|1 [--size full|tiny] [--expect-digest HEX] \
        [--tamper]

Run it from the repository root. `all` runs the three workloads one after
the other, each printing its own summary. Each workload runs in its own process
(perfbench/src, built into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench). The process prints every metric it measured as
"metric <name> <value> <unit>"; this script then prints the provenance and,
as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end_to_end metrics of BENCHMARK.json with --trace 0 and its
per_layer metrics with --trace 1. A per-layer share or count of a layer the
workload does not exercise reads 0. Full results, and the Chrome trace of a
traced run, are written to .bench_out/.

--size tiny runs the self-test sizes; --expect-digest overrides the digest
recorded in perfbench/digests.json; --tamper corrupts one labeling before it
is checked. The last two exist so perfbench/selftest.py can prove the checks
fire.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
ZERO_UNITS = {"share", "count", "bytes"}


def fail(message, code=2):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(out):
    """Configures (once) and builds the benchmark; returns the binary."""
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    for step in steps:
        proc = subprocess.run(step, cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            fail("building the benchmark failed: " + " ".join(step))
    binary = out / "spr_perfbench"
    if not binary.exists():
        fail(f"{binary} missing after the build")
    return binary


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_revision():
    """The git commit, or "unknown" outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
        if proc.returncode == 0 and proc.stdout.strip():
            return proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["sweep", "stream", "field", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "tiny"], default="full")
    parser.add_argument("--expect-digest")
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        fail("--seed must be >= 0 and --seconds > 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read BENCHMARK.json: {err}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    binary = build(build_dir())
    workloads = ["sweep", "stream", "field"] if args.workload == "all" else [args.workload]
    for workload in workloads:
        run_workload(binary, workload, args, wanted)


def run_workload(binary, workload, args, wanted):
    """Runs one workload process and prints its summary line."""
    expect = args.expect_digest
    if expect is None:
        digests = json.loads((BENCH_DIR / "digests.json").read_text())
        expect = digests.get(f"{workload}/{args.size}/{args.seed}")
    out_dir = ROOT / ".bench_out"
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(out_dir)]
    if args.size == "tiny":
        cmd.append("--tiny")
    if expect:
        cmd += ["--expect-digest", expect]
    if args.tamper:
        cmd.append("--tamper")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("the workload did not finish within 170 s", 4)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"the workload exited with code {proc.returncode}", proc.returncode)

    path = out_dir / f"{workload}-seed{args.seed}-trace{args.trace}.json"
    result = json.loads(path.read_text())
    result["provenance"].update({
        "cpu_model": cpu_model(),
        "revision": source_revision(),
        "python": platform.python_version(),
        "expected_digest": expect,
    })
    path.write_text(json.dumps(result, indent=1) + "\n")
    prov = result["provenance"]
    print(f"provenance: nproc={prov['nproc']} cpu='{prov['cpu_model']}' "
          f"compiler='{prov['compiler']}' flags='{prov['flags'].strip()}' "
          f"build={prov['build_type']} revision={prov['revision']} "
          f"seed={args.seed} threads={prov['threads']}")

    measured = result["metrics"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name} measured in {measured[name]['unit']}, declared in {unit}", 5)
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        elif unit in ZERO_UNITS:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"the {workload} workload did not measure {name}", 5)
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
