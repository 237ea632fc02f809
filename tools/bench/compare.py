#!/usr/bin/env python3
"""Perf gate: compare fresh benchmark output against the committed baselines.

Two kinds of numbers, two policies:

  virtual-time (BENCH_flush.json)  deterministic simulator output. Compared
      EXACTLY, field by field. Any difference is a correctness failure no
      matter how the run was flagged — a changed flush_s means the simulation
      itself changed, not the machine.

  wall-clock (BENCH_core.json)     machine-dependent throughput. Compared
      with a relative tolerance (default ±15%). Only benchmarks listed in the
      baseline's "gated" array are enforced; extra rows in the candidate are
      informational. --wall-mode=warn downgrades wall failures to warnings
      for noisy local machines (the ctest `perf` tier uses this); CI's bench
      job runs the default fail mode.

  virtual-time (BENCH_scale.json)  deterministic fleet-sweep rows from
      bench/fig_scale, keyed by (clients, shards, mode). Optional
      (--scale-baseline/--scale-candidate). Every candidate row must exist in
      the baseline and match EXACTLY — the candidate may be a subset (the
      --smoke sweep runs the small-N prefix of the same sweep), so the smoke
      tier gates against the committed full baseline.

  virtual-time (BENCH_adapt.json)  deterministic fig_adapt rows, keyed by
      mode. Optional (--adapt-baseline/--adapt-candidate). Same subset rule
      as scale: --smoke runs the single-server prefix of the same point set.

  virtual-time (BENCH_paper.json)  the --json-out documents of the paper's
      figure benches (fig4_make .. fig8_ch1d), keyed by bench. Optional
      (--paper-baseline/--paper-candidate). Compared EXACTLY, both ways: a
      mismatch names the path of each differing, missing or extra value.

Exit status: 0 clean, 1 any regression/mismatch. A structurally broken
input — a baseline or candidate document missing a key the comparison needs
(e.g. a baseline committed from an older schema) — exits 2 instead, naming
the key and the file it is missing from, so CI can distinguish "perf
regressed" from "the gate itself could not run".

Usage:
  tools/bench/compare.py \
      --core-baseline BENCH_core.json --core-candidate /tmp/BENCH_core.json \
      --flush-baseline BENCH_flush.json --flush-candidate /tmp/BENCH_flush.json
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


class MissingKeyError(Exception):
    """A document lacks a key the comparison needs (exit 2, not a perf fail)."""

    def __init__(self, key, path):
        super().__init__(f"missing key {key!r} (from {path})")
        self.key = key
        self.path = path


def require(doc, key, path):
    if key not in doc:
        raise MissingKeyError(key, path)
    return doc[key]


def compare_core(baseline, candidate, base_path, cand_path, tolerance, wall_mode):
    """Returns (hard_failures, warnings) comparing gated wall-clock rows."""
    failures, warnings = [], []
    base_rows = require(baseline, "benchmarks", base_path)
    gated = baseline.get("gated", sorted(base_rows.keys()))
    cand_rows = require(candidate, "benchmarks", cand_path)
    print(f"{'benchmark':<40} {'base':>12} {'cand':>12} {'ratio':>7}  verdict")
    for name in gated:
        if name not in cand_rows:
            failures.append(f"{name}: missing from candidate run")
            continue
        base = require(base_rows[name], "score_per_s", f"{base_path} [{name}]")
        cand = require(cand_rows[name], "score_per_s", f"{cand_path} [{name}]")
        if base <= 0:
            failures.append(f"{name}: baseline throughput is zero")
            continue
        ratio = cand / base
        ok = ratio >= 1.0 - tolerance
        verdict = "ok" if ok else f"SLOWER than -{tolerance:.0%}"
        print(f"{name:<40} {base:>12.3g} {cand:>12.3g} {ratio:>7.2f}  {verdict}")
        if not ok:
            msg = (
                f"{name}: {cand:.3g} score/s vs baseline {base:.3g} "
                f"(ratio {ratio:.2f}, tolerance -{tolerance:.0%})"
            )
            if wall_mode == "warn":
                warnings.append(msg)
            else:
                failures.append(msg)
    return failures, warnings


def diff_paths(base, cand, path):
    """(path, baseline, candidate) for every value at which two JSON
    documents differ, depth first; paths read like fig4_make.setups[1].wan_s."""
    if isinstance(base, dict) and isinstance(cand, dict):
        out = []
        for key in sorted(set(base) | set(cand)):
            out += diff_paths(base.get(key), cand.get(key), f"{path}.{key}")
        return out
    if isinstance(base, list) and isinstance(cand, list) and len(base) == len(cand):
        out = []
        for i, (b, c) in enumerate(zip(base, cand)):
            out += diff_paths(b, c, f"{path}[{i}]")
        return out
    return [] if base == cand else [(path, base, cand)]


def mismatches(base, cand, path):
    """One failure line per differing value, named by its path."""
    return [
        f"{p}: baseline {b!r} != candidate {c!r}"
        for p, b, c in diff_paths(base, cand, path)
    ]


def compare_flush(baseline, candidate):
    """Exact comparison of the deterministic virtual-time document."""
    failures = mismatches(baseline, candidate, "flush")
    if not failures:
        print("flush: virtual-time results identical to baseline")
    return failures


def compare_rows(kind, baseline, candidate, base_path, cand_path, keys, tag):
    """Exact subset comparison of virtual-time rows keyed by the `keys`
    fields: every candidate row must exist in the baseline and match it at
    every path."""

    def key(row, path):
        return tuple(require(row, k, path) for k in keys)

    base_rows = {
        key(r, base_path): r for r in require(baseline, "points", base_path)
    }
    cand_points = require(candidate, "points", cand_path)
    if not cand_points:
        return [f"{kind}: candidate has no points"]
    failures = []
    for row in cand_points:
        base = base_rows.get(key(row, cand_path))
        if base is None:
            failures.append(
                f"{tag(row)}: not in baseline (regenerate BENCH_{kind}.json)"
            )
            continue
        failures += mismatches(base, row, tag(row))
    if not failures:
        print(
            f"{kind}: {len(cand_points)} virtual-time row(s) match baseline "
            "exactly"
        )
    return failures


def compare_scale(baseline, candidate, base_path, cand_path):
    """Exact subset comparison of the deterministic fleet-sweep rows."""
    return compare_rows(
        "scale", baseline, candidate, base_path, cand_path,
        keys=("clients", "shards", "mode"),
        tag=lambda r: f"scale[clients={r['clients']},shards={r['shards']},"
        f"{r['mode']}]",
    )


def compare_adapt(baseline, candidate, base_path, cand_path):
    """Exact subset comparison of the deterministic fig_adapt rows."""
    return compare_rows(
        "adapt", baseline, candidate, base_path, cand_path,
        keys=("mode",),
        tag=lambda r: f"adapt[{r['mode']}]",
    )


def compare_paper(baseline, candidate, base_path, cand_path):
    """Exact comparison of the paper figures' virtual-time documents."""
    base_figs = require(baseline, "figures", base_path)
    cand_figs = require(candidate, "figures", cand_path)
    failures = mismatches(base_figs, cand_figs, "paper.figures")
    if not failures:
        print(f"paper: {len(base_figs)} figure document(s) match baseline exactly")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--core-baseline", required=True)
    ap.add_argument("--core-candidate", required=True)
    ap.add_argument("--flush-baseline", required=True)
    ap.add_argument("--flush-candidate", required=True)
    ap.add_argument("--scale-baseline")
    ap.add_argument("--scale-candidate")
    ap.add_argument("--adapt-baseline")
    ap.add_argument("--adapt-candidate")
    ap.add_argument("--paper-baseline")
    ap.add_argument("--paper-candidate")
    ap.add_argument("--wall-tolerance", type=float, default=0.15)
    ap.add_argument("--wall-mode", choices=["fail", "warn"], default="fail")
    args = ap.parse_args()
    if bool(args.scale_baseline) != bool(args.scale_candidate):
        ap.error("--scale-baseline and --scale-candidate must be given together")
    if bool(args.adapt_baseline) != bool(args.adapt_candidate):
        ap.error("--adapt-baseline and --adapt-candidate must be given together")
    if bool(args.paper_baseline) != bool(args.paper_candidate):
        ap.error("--paper-baseline and --paper-candidate must be given together")

    try:
        failures, warnings = compare_core(
            load(args.core_baseline),
            load(args.core_candidate),
            args.core_baseline,
            args.core_candidate,
            args.wall_tolerance,
            args.wall_mode,
        )
        failures += compare_flush(
            load(args.flush_baseline), load(args.flush_candidate)
        )
        if args.scale_baseline:
            failures += compare_scale(
                load(args.scale_baseline),
                load(args.scale_candidate),
                args.scale_baseline,
                args.scale_candidate,
            )
        if args.adapt_baseline:
            failures += compare_adapt(
                load(args.adapt_baseline),
                load(args.adapt_candidate),
                args.adapt_baseline,
                args.adapt_candidate,
            )
        if args.paper_baseline:
            failures += compare_paper(
                load(args.paper_baseline),
                load(args.paper_candidate),
                args.paper_baseline,
                args.paper_candidate,
            )
    except MissingKeyError as e:
        print(f"FAIL: {e}")
        print("perf gate: could not run (structurally broken input)")
        return 2

    for w in warnings:
        print(f"WARN: {w}")
    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        print(f"perf gate: {len(failures)} failure(s)")
        return 1
    print("perf gate: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
