#!/usr/bin/env python3
"""The itcfs benchmark.

Builds the benchmark binary (perfbench/CMakeLists.txt, which compiles the
simulator from ../src), runs one workload for a given time, checks its
outputs, and prints every metric with its unit and clock. The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 perfbench/run.py --workload campus_day --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --selftest

--trace 0 reports the end-to-end metrics from untraced iterations.
--trace 1 alternates untraced and traced iterations and reports the
per-layer metrics: span-derived ones from the traced iterations, the rest
from the untraced ones, plus the tracing overhead. See perfbench/METRICS.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Independent simulated days per --trace 0 run, drawn from sub-seeds of
# --seed. Simulated metrics are medians over exactly these days, so one
# unlucky day cannot move them and the same seed always reports the same
# values; host metrics are medians over every iteration. After the last
# day the run repeats days, from the first, until --seconds is up, and each
# repeat must reproduce its day's digest.
REPLICAS = {"campus_day": 3, "andrew_load": 2, "sharded_day": 3}
ITERATION_TIMEOUT_S = 150
RUN_BUDGET_S = 170       # never start an iteration that could end past this


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build(target):
    if not (HERE.parent / "src" / "CMakeLists.txt").is_file():
        raise BenchError("itcfs sources (src/) not found next to perfbench/")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target", target, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    return bdir


def sub_seed(seed, replica):
    return seed * 64 + replica


def iterate(binary, workload, seed, trace_out=None):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed)]
    if trace_out is not None:
        cmd += ["--traced", "--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=ITERATION_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), proc.returncode, proc.stderr.strip()))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("no result from " + " ".join(cmd))
    return json.loads(lines[-1])


def metric_map(result):
    return {m["name"]: m for m in result["metrics"]}


def declared_metrics():
    """(end_to_end, per_layer) name->unit maps from BENCHMARK.json, if present."""
    path = Path("BENCHMARK.json")
    if not path.is_file():
        return None
    spec = json.loads(path.read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def median_metric(name, results):
    """Median of one metric over iterations, with its description."""
    rows = [metric_map(r)[name] for r in results]
    first = rows[0]
    return {
        "value": statistics.median(row["value"] for row in rows),
        "unit": first["unit"],
        "clock": first["clock"],
        "samples": first["samples"],
        "iterations": len(rows),
        "thin_tail": first["thin_tail"],
    }


def run(args):
    bdir = build("itcfs_perfbench")
    binary = bdir / "itcfs_perfbench"
    traced = args.trace == 1
    trace_out = bdir / "traces" / ("%s-seed%d.json" % (args.workload, args.seed))
    if traced:
        trace_out.parent.mkdir(parents=True, exist_ok=True)

    replicas = 1 if traced else REPLICAS[args.workload]
    untraced_runs, traced_runs = [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = len(untraced_runs) >= replicas
        if enough and (elapsed >= args.seconds or elapsed + longest > RUN_BUDGET_S):
            break
        t0 = time.monotonic()
        seed = sub_seed(args.seed, len(untraced_runs) % replicas)
        untraced_runs.append(iterate(binary, args.workload, seed))
        if traced:
            traced_runs.append(iterate(binary, args.workload, seed, trace_out))
        longest = max(longest, time.monotonic() - t0)

    results = untraced_runs + traced_runs
    problems = []
    for r in results:
        if r["failed"] or r["errors"]:
            problems.append("%s%s: %d failed: %s" % (
                r["workload"], " (traced)" if r["traced"] else "", r["failed"], "; ".join(r["errors"])))
    first_digest = {}
    for r in results:
        want = first_digest.setdefault(r["seed"], r["digest"])
        if r["digest"] != want:
            problems.append("simulated results of seed %d differ between runs: %s vs %s"
                            % (r["seed"], want, r["digest"]))
    days = untraced_runs[:replicas]

    declared = declared_metrics()
    def source(m):
        if m["traced_only"]:
            return traced_runs
        # Simulated values repeat exactly for a day; host values vary.
        return untraced_runs if m["clock"] == "host" else days

    # --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
    sample = metric_map((traced_runs or untraced_runs)[0])
    metrics = {name: median_metric(name, source(m))
               for name, m in sample.items() if m["end_to_end"] != traced}
    if traced:
        overheads = [metric_map(t)["run_wall_s"]["value"] / metric_map(u)["run_wall_s"]["value"] - 1
                     for u, t in zip(untraced_runs, traced_runs)]
        metrics["trace.overhead_frac"] = {
            "value": statistics.median(overheads), "unit": "ratio", "clock": "host",
            "samples": 0, "iterations": len(overheads), "thin_tail": False}

    if declared is not None:
        want = declared[1] if traced else declared[0]
        for name, unit in want.items():
            if name not in metrics:
                raise BenchError("BENCHMARK.json declares %s but the benchmark does not measure it" % name)
            if metrics[name]["unit"] != unit:
                raise BenchError("unit of %s: BENCHMARK.json says %s, measured in %s"
                                 % (name, unit, metrics[name]["unit"]))

    facts = untraced_runs[0]["facts"]
    print("itcfs benchmark: workload=%s seed=%d seconds=%d trace=%d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("host: " + json.dumps(facts, sort_keys=True))
    print("iterations: %d untraced, %d traced, %d simulated days, %.1f s" % (
        len(untraced_runs), len(traced_runs), replicas, time.monotonic() - start))
    for r in days:
        print("simulated day %d: %s" % (r["seed"], r["summary"]))
    if traced:
        print("chrome trace: %s (%d spans dropped)" % (trace_out, traced_runs[0]["spans_dropped"]))
    for p in problems:
        print("CHECK FAILED: " + p)
    print("%-34s %16s %-7s %-6s %s" % ("metric", "value", "unit", "clock", "basis"))
    for name in sorted(metrics):
        m = metrics[name]
        if m["clock"] == "host":
            basis = "median of %d iterations" % m["iterations"]
        else:
            basis = "median of %d days" % m["iterations"] if m["iterations"] > 1 else "one day"
            if m["samples"]:
                basis += ", %d samples in the first" % m["samples"]
        if m["thin_tail"]:
            basis += ", fewer than 10 samples beyond this percentile"
        print("%-34s %16.6g %-7s %-6s %s" % (name, m["value"], m["unit"], m["clock"], basis))

    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()},
    }))


def selftest():
    bdir = build("perfbench_tests")
    return subprocess.run([str(bdir / "perfbench_tests")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=sorted(REPLICAS) + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the tests of the benchmark's own helpers")
    args = parser.parse_args()
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        if not 0 <= args.seed < 2 ** 57:  # sub-seeds are seed * 64 + day
            parser.error("--seed must be in [0, 2^57)")
        for workload in sorted(REPLICAS) if args.workload == "all" else [args.workload]:
            run(argparse.Namespace(**{**vars(args), "workload": workload}))
    except (BenchError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        log("perfbench: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
