#!/usr/bin/env python3
"""Regenerate the tracked perf baselines (BENCH_*.json at the repo root).

Runs the benchmarks from an existing Release build and distils their output
into the committed baseline files:

  BENCH_core.json   wall-clock micro benchmarks (google-benchmark): per-bench
                    real time and throughput. Machine-dependent; compared with
                    a relative tolerance by compare.py.
  BENCH_flush.json  micro_flush virtual-time results (flush latency vs
                    write-back window). Deterministic; compared exactly.
  BENCH_scale.json  fig_scale fleet sweep (GETINV load / buffer occupancy vs
                    client count across sharding and aggregation topologies).
                    Deterministic; compared exactly per (clients, shards,
                    mode) row — a smoke run gates as a subset.
  BENCH_adapt.json  fig_adapt adaptive-consistency points (three-phase mixed
                    workload across polling / delegation / adaptive /
                    adaptive-sharded). Deterministic; compared exactly per
                    mode row — a smoke run gates as a subset.
  BENCH_paper.json  the --json-out documents of the paper's figure benches
                    (fig4_make .. fig8_ch1d), keyed by bench. Deterministic;
                    compared exactly.

Usage:
  tools/bench/run_bench.py --build-dir build --out-dir .

`--repeat N` reruns the wall-clock micro_core suite N times and records the
per-benchmark median, shielding the committed baseline from one noisy run.

The committed copies at the repo root are the CI reference; regenerate them
with this script on a quiet machine whenever a PR intentionally moves perf
(see EXPERIMENTS.md, "Perf baseline").
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

# Benchmarks whose throughput defines the tracked baseline. Names must match
# bench/micro_core.cpp. The full-suite run produces more rows; anything not
# listed here is recorded but not gated (compare.py gates only what the
# baseline file contains). BM_PolicyTick/100 and /100000 are such rows: they
# track how a policy window's cost grows with the delegated files it holds.
CORE_BENCHMARKS = [
    "BM_SchedulerEventThroughput",
    "BM_XdrEncodeFattr",
    "BM_XdrDecodeFattr",
    "BM_XdrOpaqueRoundTrip/1024",
    "BM_XdrOpaqueRoundTrip/32768",
    "BM_DiskCacheAttrLookup",
    "BM_DiskCacheBlockWrite",
    "BM_MemFsCreateWrite",
    "BM_SimulatedGetattrRoundTrip",
    "BM_SimulatedWriteRoundTrip",
]


def run_micro_core(build_dir, min_time):
    binary = os.path.join(build_dir, "bench", "micro_core")
    cmd = [
        binary,
        f"--benchmark_min_time={min_time}",
        "--benchmark_format=json",
    ]
    print(f"+ {' '.join(cmd)}", file=sys.stderr)
    out = subprocess.run(cmd, check=True, capture_output=True, text=True)
    doc = json.loads(out.stdout)
    rows = {}
    for b in doc.get("benchmarks", []):
        name = b["name"]
        real_ns = float(b["real_time"])
        items = float(b.get("items_per_second", 0.0))
        # Uniform "bigger is better" score: reported throughput when the
        # benchmark sets one, else iterations per second from wall time.
        score = items if items > 0 else 1e9 / real_ns
        rows[name] = {
            "real_time_ns": round(real_ns, 2),
            "items_per_second": round(items, 1),
            "score_per_s": round(score, 1),
        }
    missing = [n for n in CORE_BENCHMARKS if n not in rows]
    if missing:
        sys.exit(f"micro_core output is missing benchmarks: {missing}")
    return rows


def run_micro_core_repeated(build_dir, min_time, repeat):
    """Median-of-N wall-clock rows: reruns the whole micro_core suite
    `repeat` times and takes the per-benchmark, per-field median. Only the
    wall-clock keys exist in these rows, so a single noisy run (cron jitter,
    thermal throttling) cannot move the recorded baseline; the virtual-time
    documents are deterministic and never repeated."""
    runs = [run_micro_core(build_dir, min_time) for _ in range(repeat)]
    if repeat == 1:
        return runs[0]
    merged = {}
    for name in runs[0]:
        samples = [r[name] for r in runs if name in r]
        merged[name] = {
            "real_time_ns": round(
                statistics.median(s["real_time_ns"] for s in samples), 2),
            "items_per_second": round(
                statistics.median(s["items_per_second"] for s in samples), 1),
            "score_per_s": round(
                statistics.median(s["score_per_s"] for s in samples), 1),
        }
    return merged


def run_micro_flush(build_dir, out_path):
    binary = os.path.join(build_dir, "bench", "micro_flush")
    cmd = [binary, "--check", "--json-out", out_path]
    print(f"+ {' '.join(cmd)}", file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out_path) as f:
        return json.load(f)


def run_fig_scale(build_dir, out_path, smoke):
    binary = os.path.join(build_dir, "bench", "fig_scale")
    cmd = [binary, "--check", "--json-out", out_path]
    if smoke:
        cmd.append("--smoke")
    print(f"+ {' '.join(cmd)}", file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out_path) as f:
        return json.load(f)


def run_fig_adapt(build_dir, out_path, smoke):
    binary = os.path.join(build_dir, "bench", "fig_adapt")
    cmd = [binary, "--check", "--json-out", out_path]
    if smoke:
        cmd.append("--smoke")
    print(f"+ {' '.join(cmd)}", file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out_path) as f:
        return json.load(f)


# The paper's own figures (§5). Each bench's full --json-out document is
# recorded verbatim under its name.
PAPER_BENCHES = [
    "fig4_make",
    "fig5_postmark",
    "fig6_lock",
    "fig7_nanomos",
    "fig8_ch1d",
]


def run_paper_figures(build_dir, out_dir):
    figures = {}
    for name in PAPER_BENCHES:
        binary = os.path.join(build_dir, "bench", name)
        json_path = os.path.join(out_dir, f"{name}.json")
        cmd = [binary, "--json-out", json_path]
        print(f"+ {' '.join(cmd)}", file=sys.stderr)
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        with open(json_path) as f:
            figures[name] = json.load(f)
    return {
        "schema": "gvfs-bench-paper/1",
        "note": (
            "Virtual-time results of the paper's figure benches (--json-out "
            "of each). Deterministic; compare.py gates them exactly."
        ),
        "figures": figures,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build")
    ap.add_argument("--out-dir", default=".")
    ap.add_argument(
        "--min-time",
        default="0.3",
        help="google-benchmark --benchmark_min_time per benchmark (seconds)",
    )
    ap.add_argument(
        "--gate-baseline-dir",
        default=None,
        help="after running, invoke compare.py against the committed "
        "BENCH_*.json in this directory and exit with its status",
    )
    ap.add_argument("--wall-mode", choices=["fail", "warn"], default="fail")
    ap.add_argument(
        "--repeat",
        type=int,
        default=1,
        help="run the wall-clock micro_core suite N times and record the "
        "per-benchmark median (use 3-5 when regenerating the committed "
        "baseline; virtual-time documents are deterministic and run once)",
    )
    ap.add_argument(
        "--scale-smoke",
        action="store_true",
        help="run only the small-N prefix of the fig_scale sweep (rows still "
        "gate exactly, as a subset of the committed baseline)",
    )
    ap.add_argument(
        "--adapt-smoke",
        action="store_true",
        help="run only the single-server fig_adapt points (rows still gate "
        "exactly, as a subset of the committed baseline)",
    )
    args = ap.parse_args()

    os.makedirs(args.out_dir, exist_ok=True)

    if args.repeat < 1:
        sys.exit("--repeat must be >= 1")
    core_rows = run_micro_core_repeated(
        args.build_dir, args.min_time, args.repeat)
    core_doc = {
        "schema": "gvfs-bench-core/1",
        "note": (
            "Wall-clock micro benchmarks; machine-dependent. CI compares "
            "against this file with a relative tolerance (compare.py). "
            "Regenerate with tools/bench/run_bench.py on a quiet machine."
        ),
        "host": {
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "gated": CORE_BENCHMARKS,
        "benchmarks": core_rows,
    }
    core_path = os.path.join(args.out_dir, "BENCH_core.json")
    with open(core_path, "w") as f:
        json.dump(core_doc, f, indent=1)
        f.write("\n")
    print(f"wrote {core_path}", file=sys.stderr)

    flush_path = os.path.join(args.out_dir, "BENCH_flush.json")
    flush_doc = run_micro_flush(args.build_dir, flush_path)
    print(f"wrote {flush_path}", file=sys.stderr)

    scale_path = os.path.join(args.out_dir, "BENCH_scale.json")
    run_fig_scale(args.build_dir, scale_path, args.scale_smoke)
    print(f"wrote {scale_path}", file=sys.stderr)

    adapt_path = os.path.join(args.out_dir, "BENCH_adapt.json")
    run_fig_adapt(args.build_dir, adapt_path, args.adapt_smoke)
    print(f"wrote {adapt_path}", file=sys.stderr)

    paper_path = os.path.join(args.out_dir, "BENCH_paper.json")
    with open(paper_path, "w") as f:
        json.dump(run_paper_figures(args.build_dir, args.out_dir), f, indent=1)
        f.write("\n")
    print(f"wrote {paper_path}", file=sys.stderr)

    rt = core_rows.get("BM_SimulatedGetattrRoundTrip", {})
    print(
        f"roundtrip: {rt.get('items_per_second', 0) / 1e6:.2f}M sim-RPCs/s; "
        f"flush speedup w8/w1: {flush_doc.get('speedup_w8_vs_w1')}",
        file=sys.stderr,
    )

    if args.gate_baseline_dir:
        compare = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "compare.py"
        )
        rc = subprocess.run(
            [
                sys.executable,
                compare,
                "--core-baseline",
                os.path.join(args.gate_baseline_dir, "BENCH_core.json"),
                "--core-candidate",
                core_path,
                "--flush-baseline",
                os.path.join(args.gate_baseline_dir, "BENCH_flush.json"),
                "--flush-candidate",
                flush_path,
                "--scale-baseline",
                os.path.join(args.gate_baseline_dir, "BENCH_scale.json"),
                "--scale-candidate",
                scale_path,
                "--adapt-baseline",
                os.path.join(args.gate_baseline_dir, "BENCH_adapt.json"),
                "--adapt-candidate",
                adapt_path,
                "--paper-baseline",
                os.path.join(args.gate_baseline_dir, "BENCH_paper.json"),
                "--paper-candidate",
                paper_path,
                "--wall-mode",
                args.wall_mode,
            ]
        ).returncode
        sys.exit(rc)


if __name__ == "__main__":
    main()
