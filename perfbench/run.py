#!/usr/bin/env python3
"""Benchmark of the GVFS simulator: three seeded workloads driven through the
public Testbed / KernelClient / MemFs API (see perfbench/README.md).

Measured run (the command BENCHMARK.json names), from the repository root:

    python3 perfbench/run.py --workload postmark-deleg --seed 1 --seconds 30 --trace 0

builds the harness into .bench_build/ (or $CARGO_TARGET_DIR) on first use,
then starts fresh harness processes back to back until --seconds of wall time
have passed (at least three). Right before each one it times the reference
loop, gvfs_perfbench_ref, and scales that process's ops_per_s and setup_s to
a machine on which the loop takes REFERENCE_MS of CPU, so the shared
machine's drift over minutes cancels. Simulated and counted metrics must
agree exactly between the processes; host metrics are reported as medians.
With --trace 1 one more process runs with tracing on and the per-layer
metrics are reported. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every check passed.

Other modes:
    --check              paper cross-checks, then one traced run per workload,
                         printing every metric by name and unit
    --steady N           N fresh processes per workload, alternating workloads;
                         median, quartiles and largest deviation per metric
    --seed-spread N      N full runs per workload on seeds 1..N; quartile
                         spread of each end-to-end metric against its bound,
                         failing when any spread exceeds it
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("postmark-deleg", "fleet-agg", "repo-adaptive")
MIN_PROCESSES = 3
MAX_PROCESSES = 15
PROCESS_TIMEOUT_S = 150
# End-to-end host times are multiplied by (reference loop CPU time /
# REFERENCE_MS) to the given power: on a slow machine a rate goes up and a
# duration goes down. The reference time is the median of REFERENCE_REPEATS
# fresh processes.
REFERENCE_MS = 250.0
REFERENCE_REPEATS = 3
NORMALIZED = {"ops_per_s": 1, "setup_s": -1}


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures (once) and builds the harness; returns the paths of the
    harness and of the reference loop."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources not found under %s/src: run from a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    out = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=out, stderr=out).returncode != 0:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=out, stderr=out).returncode != 0:
        fail("build failed")
    return (os.path.join(build_dir, "gvfs_perfbench"),
            os.path.join(build_dir, "gvfs_perfbench_ref"))


def run_process(binary, workload, seed, traced=False, paper=False):
    """One fresh harness process; returns its parsed result (ok=False on a crash)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--trace", "1" if traced else "0"]
    if paper:
        cmd.append("--paper")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PROCESS_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"ok": False, "errors": ["%s timed out" % workload], "attempted": 0,
                "failed": 0, "metrics": {}}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"ok": False, "errors": ["%s exited %d without a result: %s"
                                        % (workload, proc.returncode, " | ".join(tail))],
                "attempted": 0, "failed": 0, "metrics": {}}
    if proc.returncode != 0 and result.get("ok"):
        result["ok"] = False
        result["errors"] = ["%s exited %d" % (workload, proc.returncode)]
    return result


def time_reference(reference):
    """CPU ms of the reference loop (median of fresh processes); None on failure."""
    times = []
    try:
        for _ in range(REFERENCE_REPEATS):
            proc = subprocess.run([reference], stdout=subprocess.PIPE, text=True,
                                  timeout=PROCESS_TIMEOUT_S)
            if proc.returncode != 0:
                return None
            times.append(float(proc.stdout.split()[0]))
    except (subprocess.TimeoutExpired, ValueError, IndexError):
        return None
    return statistics.median(times)


def sample(harness, reference, workload, seed):
    """Times the reference loop, then runs one harness process and scales its
    end-to-end host times to the nominal machine."""
    ref_ms = time_reference(reference)
    result = run_process(harness, workload, seed)
    if ref_ms is None:
        result["ok"] = False
        result["errors"] = result.get("errors", []) + ["the reference loop failed"]
        return result
    metrics = result.get("metrics", {})
    if metrics:
        speed = ref_ms / REFERENCE_MS  # above 1 on a machine slower than nominal
        for name, power in NORMALIZED.items():
            if name in metrics:
                metrics[name]["value"] *= speed ** power
        metrics["host.ref_ms"] = {"value": ref_ms, "unit": "ms", "kind": "host"}
    return result


def aggregate(results, traced_result=None):
    """Merges process results: exact agreement for simulated metrics, medians
    for host metrics, the traced process for trace metrics."""
    errors = []
    for r in results + ([traced_result] if traced_result else []):
        errors += r.get("errors", [])
    merged = {}
    ok_results = [r for r in results if r.get("metrics")]
    if ok_results:
        for name, m in ok_results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in ok_results if name in r["metrics"]]
            if m["kind"] == "sim":
                if any(v != values[0] for v in values):
                    errors.append("simulated metric %s differs between processes: %s"
                                  % (name, values))
                value = values[0]
            else:
                value = statistics.median(values)
            merged[name] = {"value": value, "unit": m["unit"], "kind": m["kind"]}
    if traced_result and traced_result.get("metrics"):
        for name, m in traced_result["metrics"].items():
            if m["kind"] == "trace":
                merged[name] = m
        base = merged.get("host.cpu_ms", {}).get("value", 0)
        traced = traced_result["metrics"].get("trace.timed_cpu_ms", {}).get("value", 0)
        merged["trace.overhead_pct"] = {
            "value": 100.0 * (traced / base - 1) if base > 0 else 0.0,
            "unit": "%", "kind": "trace"}
    everything = results + ([traced_result] if traced_result else [])
    correct = (not errors and all(r.get("ok") for r in everything)
               and all(r.get("failed", 0) == 0 for r in everything))
    return {
        "correct": correct,
        "errors": errors,
        "attempted": sum(int(r.get("attempted", 0)) for r in everything),
        "failed": sum(int(r.get("failed", 0)) for r in everything),
        "processes": len(results),
        "metrics": merged,
    }


def measure(binaries, workload, seed, seconds, traced):
    harness, reference = binaries
    results = []
    start = time.monotonic()
    while len(results) < MIN_PROCESSES or (time.monotonic() - start < seconds
                                           and len(results) < MAX_PROCESSES):
        results.append(sample(harness, reference, workload, seed))
        if not results[-1].get("ok"):
            break
    traced_result = run_process(harness, workload, seed, traced=True) if traced else None
    return aggregate(results, traced_result)


def print_table(title, names, metrics):
    print(title)
    for name in names:
        m = metrics.get(name)
        if m is not None:
            print("  %-36s %18.6g %s" % (name, m["value"], m["unit"]))


# Printed beside the end-to-end set: the latency median and the raw staleness
# and failure shares (BENCHMARK.json carries them as op_mean_ms, fresh_read_pct
# and op_ok_pct, because on some workloads they read a constant or 0), and the
# reference loop's time the host times were scaled by.
REPORT_EXTRAS = ("op_p50_ms", "stale_read_pct", "op_fail_pct", "stale.max_ms", "host.ref_ms")


def report(spec, workload, seed, result, traced):
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    metrics = result["metrics"]
    print("== %s (seed %s, %d processes) ==" % (workload, seed, result["processes"]))
    print_table("end to end:", e2e + list(REPORT_EXTRAS), metrics)
    if traced:
        shown = set(e2e) | set(layer) | set(REPORT_EXTRAS)
        print_table("per layer:", [n for n in layer if n not in REPORT_EXTRAS], metrics)
        print_table("more:", sorted(n for n in metrics if n not in shown), metrics)
    for e in result["errors"]:
        print("  ERROR: " + e.splitlines()[0])


def final_line(spec, result, traced):
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    out = {}
    for m in wanted:
        value = result["metrics"].get(m["name"], {}).get("value")
        if value is None:
            result["correct"] = False
            result["errors"].append("metric %s missing" % m["name"])
            value = 0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": max(1, result["attempted"]),
            "failed": result["failed"], "metrics": out}


def cmd_measure(args, spec):
    binaries = build()
    traced = args.trace == 1
    result = measure(binaries, args.workload, args.seed, args.seconds, traced)
    report(spec, args.workload, args.seed, result, traced)
    line = final_line(spec, result, traced)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def cmd_check(args, spec):
    binaries = build()
    ok = True
    for workload in ("postmark-deleg", "repo-adaptive"):
        r = run_process(binaries[0], workload, 0, paper=True)
        print("== paper cross-check: %s ==" % workload)
        for name, m in sorted(r.get("metrics", {}).items()):
            if name.startswith("paper.") or name.startswith("repo.iter"):
                print("  %-36s %18.6f %s" % (name, m["value"], m["unit"]))
        for e in r.get("errors", []):
            print("  ERROR: " + e.splitlines()[0])
        ok = ok and r.get("ok", False)
    for workload in WORKLOADS:
        result = measure(binaries, workload, args.seed, args.seconds, traced=True)
        report(spec, workload, args.seed, result, traced=True)
        ok = ok and final_line(spec, result, True)["correct"]
    print("CHECK %s" % ("OK" if ok else "FAILED"))
    return 0 if ok else 1


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def cmd_steady(args, spec):
    harness, reference = build()
    runs = {w: [] for w in WORKLOADS}
    for i in range(args.steady):
        order = WORKLOADS if i % 2 == 0 else reversed(WORKLOADS)
        for w in order:
            runs[w].append(sample(harness, reference, w, args.seed))
    ok = True
    for w in WORKLOADS:
        results = [r for r in runs[w] if r.get("metrics")]
        print("== %s: %d processes, seed %d ==" % (w, len(results), args.seed))
        print("  %-36s %14s %14s %14s %9s" % ("metric", "median", "q1", "q3", "maxdev%"))
        if not results:
            ok = False
            continue
        for name, m in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            dev = max(abs(v - med) for v in values)
            rel = 100.0 * dev / abs(med) if med else 0.0
            flag = ""
            if m["kind"] == "sim" and any(v != values[0] for v in values):
                flag = "  <-- SIMULATED METRIC DIFFERS"
                ok = False
            print("  %-36s %14.6g %14.6g %14.6g %9.2f%s" % (name, med, q1, q3, rel, flag))
        for r in runs[w]:
            for e in r.get("errors", []):
                ok = False
                print("  ERROR: " + e.splitlines()[0])
    return 0 if ok else 1


def cmd_seed_spread(args, spec):
    build()
    ok = True
    for w in WORKLOADS:
        lines = []
        for seed in range(1, args.seed_spread + 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, text=True, cwd=ROOT)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = ok and line["correct"]
            lines.append(line)
        print("== %s: %d seeds, --seconds %s ==" % (w, len(lines), args.seconds))
        print("  %-16s %14s %9s %9s %7s" % ("metric", "median", "iqr/med", "bound", "<b/3"))
        for m in spec["end_to_end"]:
            values = [line["metrics"][m["name"]]["value"] for line in lines]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            steady = spread < m["bound"] / 3
            ok = ok and spread <= m["bound"]
            print("  %-16s %14.6g %9.4f %9.3f %7s" % (m["name"], med, spread, m["bound"],
                                                      "yes" if steady else "NO"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="wall time of one measured run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--steady", type=int, default=0)
    parser.add_argument("--seed-spread", type=int, default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.check:
        return cmd_check(args, spec)
    if args.steady:
        return cmd_steady(args, spec)
    if args.seed_spread:
        return cmd_seed_spread(args, spec)
    if not args.workload:
        parser.error("--workload is required")
    return cmd_measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
