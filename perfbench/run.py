#!/usr/bin/env python3
"""The repository benchmark: build perfbench from source and run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload halo|md|particles --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

The first call configures and builds the library sources under src/ together
with the benchmark (perfbench/CMakeLists.txt) into .bench_build/perfbench;
later calls rebuild incrementally. The benchmark binary prints its run
record and ends with one JSON line of measured values by metric name.
BENCHMARK.json is the only list of metric names and units: this script
attaches the units, prints a readable report and ends with one JSON line:

    {"correct": .., "attempted": .., "failed": .., "metrics": {..}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, each
of which the binary must have measured; with --trace 1 they are the per-layer
metrics, where one the binary did not report belongs to a layer idle on that
workload and reads 0. The traced run also writes a Chrome trace-event file
(open it in Perfetto) next to the binary. The exit status is the binary's:
0 when every output check passed.

--self-test flips one bit of a trial's output on every workload and checks
that the run then reports failed operations and exits nonzero, so the output
check cannot pass vacuously.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
WORKLOADS = ("halo", "md", "particles")
# One run must finish in 180 s; the binary measures for --seconds plus its
# reference and (traced) single-rank passes.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "runtime" / "runtime.hpp").is_file():
        fail(f"library sources not found under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON line.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run_binary(workload, seed, seconds, trace, extra=()):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    if trace:
        cmd += ["--trace-out", str(BUILD / f"trace-{workload}-{seed}.json")]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        result = None
    if result is not None and set(result) != {"correct", "attempted",
                                              "failed", "values"}:
        result = None
    return proc.returncode, lines[:-1] if result else lines, result


def report(result, trace):
    """Print the readable report and return the metrics with their units."""
    values = dict(result["values"])
    metrics, idle = {}, []
    for m in declared_metrics(trace):
        name = m["name"]
        if name not in values and not trace:
            fail(f"the benchmark did not measure {name}", 3)
        if name not in values:
            idle.append(name)
        value = values.pop(name, 0.0)
        if value is None:
            fail(f"{name} is not a finite number", 3)
        metrics[name] = {"value": value, "unit": m["unit"]}
    print("per-layer (traced):" if trace else "end-to-end (untraced):")
    for name, m in metrics.items():
        note = "  (layer idle on this workload)" if name in idle else ""
        print(f"  {name} = {m['value']:.6g} {m['unit']}{note}")
    print("also measured, not in BENCHMARK.json (times named *_ms are in ms):")
    for name, value in sorted(values.items()):
        print(f"  {name} = {value}")
    frac = result["failed"] / max(result["attempted"], 1)
    print(f"  failed_frac = {frac:.6g} ratio ({result['failed']} of "
          f"{result['attempted']} operations)")
    return metrics


def self_test():
    ok = True
    for w in WORKLOADS:
        code, _, clean = run_binary(w, 1, 1, False)
        bad_code, _, bad = run_binary(w, 1, 1, False, ["--corrupt"])
        good = (code == 0 and clean and clean["failed"] == 0 and
                bad_code == 1 and bad and not bad["correct"] and
                bad["failed"] > 0)
        ok = ok and good
        print(f"{w}: clean failed={clean and clean['failed']} exit={code}; "
              f"corrupted failed={bad and bad['failed']} of "
              f"{bad and bad['attempted']} exit={bad_code} -> "
              f"{'ok' if good else 'CHECK DID NOT FIRE'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    build()
    if args.self_test:
        sys.exit(self_test())
    if args.workload is None:
        fail("--workload is required")
    code, lines, result = run_binary(args.workload, args.seed, args.seconds,
                                     args.trace)
    print("\n".join(lines), flush=True)
    if result is None:
        fail("benchmark printed no result line", code or 3)
    metrics = report(result, args.trace)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}),
          flush=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
