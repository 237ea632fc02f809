#!/usr/bin/env python3
"""Doctor-tier ctest driver: exercises the gvfs-doctor CLI end to end.

Modes:
  clean   fixture --clean dump -> doctor must exit 0 and say HEALTHY
  unsafe  fixture --unsafe dump -> doctor must exit 1, name the violating
          file handle and migration, and emit a machine-readable verdict
          with healthy=false
  fig5    fig5_postmark --dump-out dump -> doctor must exit 0 (a passing
          benchmark run diagnoses clean)
  chrome  fig5_postmark --trace-out trace -> doctor --trace must exit 0, say
          HEALTHY, and read back every instant event of the Chrome trace
          (its JSON trace.events equals the trace's "ph":"i" count)
  storm   fig_adapt --dump-on-anomaly dump --storm-threshold 2 -> the online
          recall-storm detector fires mid-run and snapshots the session; the
          doctor must reproduce the same recall-storm verdict from the dump
          (exit 1, healthy=false, a recall-storm anomaly in the JSON)
"""

import argparse
import json
import pathlib
import re
import subprocess
import sys


def run(cmd, expect_rc=None):
    print("+", " ".join(str(c) for c in cmd), flush=True)
    proc = subprocess.run(
        [str(c) for c in cmd], capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    if expect_rc is not None and proc.returncode != expect_rc:
        sys.exit(f"FAIL: {cmd[0]} exited {proc.returncode}, "
                 f"expected {expect_rc}")
    return proc


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", required=True,
                        choices=["clean", "unsafe", "fig5", "storm",
                                 "chrome"])
    parser.add_argument("--doctor", required=True)
    parser.add_argument("--fixture")
    parser.add_argument("--fig5")
    parser.add_argument("--fig-adapt")
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    workdir = pathlib.Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    dump = workdir / f"{args.mode}.gvfsdump"

    if args.mode == "storm":
        if not args.fig_adapt:
            sys.exit("FAIL: --fig-adapt is required in storm mode")
        run([args.fig_adapt, "--dump-on-anomaly", dump,
             "--storm-threshold", "2"], expect_rc=0)
        report_json = workdir / "storm_report.json"
        proc = run([args.doctor, dump, "--json-out", report_json],
                   expect_rc=1)
        if "VERDICT: UNHEALTHY" not in proc.stdout:
            sys.exit(f"FAIL: doctor did not flag the storm dump {dump}")
        if "recall-storm" not in proc.stdout:
            sys.exit(f"FAIL: diagnosis of {dump} does not name recall-storm")
        verdict = json.loads(report_json.read_text())
        if verdict["healthy"]:
            sys.exit("FAIL: JSON verdict claims healthy")
        kinds = {a["kind"] for a in verdict["anomalies"]}
        if "recall-storm" not in kinds:
            sys.exit(f"FAIL: JSON verdict lacks the recall-storm "
                     f"anomaly: {sorted(kinds)}")
        print("OK: recall-storm dump round-trips through the doctor "
              f"({sorted(kinds)})")
        return

    if args.mode == "chrome":
        if not args.fig5:
            sys.exit("FAIL: --fig5 is required in chrome mode")
        trace = workdir / "fig5_trace.json"
        run([args.fig5, "--trace-out", trace], expect_rc=0)
        report_json = workdir / "chrome_report.json"
        proc = run([args.doctor, "--trace", trace, "--json-out", report_json],
                   expect_rc=0)
        if "VERDICT: HEALTHY" not in proc.stdout:
            sys.exit(f"FAIL: Chrome trace {trace} did not diagnose healthy")
        instants = sum(1 for e in json.loads(trace.read_text())
                       if e.get("ph") == "i")
        events = json.loads(report_json.read_text())["trace"]["events"]
        if events != instants:
            sys.exit(f"FAIL: doctor read {events} events back from {trace}, "
                     f"which holds {instants} instants")
        print(f"OK: all {instants} instants of a fig5 Chrome trace round-trip "
              "through the doctor")
        return

    if args.mode == "fig5":
        if not args.fig5:
            sys.exit("FAIL: --fig5 is required in fig5 mode")
        run([args.fig5, "--dump-out", dump], expect_rc=0)
        run([args.doctor, dump], expect_rc=0)
        print("OK: doctor diagnoses a passing fig5 run as clean")
        return

    if not args.fixture:
        sys.exit("FAIL: --fixture is required in clean/unsafe modes")
    run([args.fixture, f"--{args.mode}", dump], expect_rc=0)

    if args.mode == "clean":
        proc = run([args.doctor, dump], expect_rc=0)
        if "VERDICT: HEALTHY" not in proc.stdout:
            sys.exit("FAIL: clean dump did not produce a HEALTHY verdict")
        print("OK: clean fixture dump diagnoses healthy")
        return

    # unsafe: the doctor must convict and name the evidence.
    report_json = workdir / "unsafe_report.json"
    proc = run([args.doctor, dump, "--json-out", report_json], expect_rc=1)
    if "VERDICT: UNHEALTHY" not in proc.stdout:
        sys.exit(f"FAIL: doctor did not flag the unsafe dump {dump}")
    if "migrat" not in proc.stdout:
        sys.exit(f"FAIL: diagnosis of {dump} does not mention the migration")
    if not re.search(r"\d+:\d+", proc.stdout):
        sys.exit(f"FAIL: diagnosis of {dump} does not name a file handle")
    verdict = json.loads(report_json.read_text())
    if verdict["healthy"]:
        sys.exit("FAIL: JSON verdict claims healthy")
    kinds = {v["kind"] for v in verdict["violations"]}
    if "policy-migration" not in kinds:
        sys.exit(f"FAIL: JSON verdict lacks the policy-migration "
                 f"violation: {sorted(kinds)}")
    print(f"OK: doctor convicted the unsafe dump ({sorted(kinds)})")


if __name__ == "__main__":
    main()
