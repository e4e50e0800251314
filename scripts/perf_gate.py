#!/usr/bin/env python3
"""Performance gate: run canonical benches and compare headline metrics
against the checked-in baseline (bench/baselines/BENCH_baseline.json).

The simulator is deterministic, so baseline numbers are machine-independent
and exact; the tolerance only absorbs intended model retunes small enough
not to matter. Typical uses:

  # Gate (CI and pre-commit): exit 2 when any metric regresses.
  $ scripts/perf_gate.py --bindir build/bench

  # Refresh after an intended performance change: rerun every bench and
  # rewrite the baseline values in place, then commit the diff with a
  # sentence in the PR body saying why the numbers moved.
  $ scripts/perf_gate.py --bindir build/bench --update

Baseline format: {"tolerance": T, "benches": [{"name", "id"?, "args",
"format", "metrics": [...]}]}. "format" selects the stdout parser: "json"
walks dotted paths (list indices as integers) through the bench's JSON
report; "csv" aggregates every numeric cell and offers the paths "max" and
"mean". "id" names the entry for --only when one binary appears under
several argument sets (defaults to "name").

Three metric kinds:

  {"path", "value", "higher_is_better"}            kind: "regression"
      Deterministic simulator output; compared exactly against "value"
      within the relative tolerance. --update rewrites "value".

  {"path", "kind": "lower_bound", "min_value"}     wall-clock floors
      Machine-dependent throughput (e.g. the serve_loadgen --perf
      section). Fails only below the absolute floor "min_value", which is
      set with generous headroom so slow CI machines still pass; the
      tolerance does not apply. --update refreshes the informational
      "observed" field but never moves the floor — raise it by hand when
      the engine genuinely gets faster.

  {"path", "kind": "upper_bound", "max_value"}     machine-dependent ceilings
      The mirror of lower_bound for costs such as the --perf section's
      peak_rss_mb. Fails only above the absolute ceiling "max_value";
      the tolerance does not apply. --update refreshes "observed" only;
      lower the ceiling by hand when the cost genuinely falls.

Exit status: 0 when every metric is inside tolerance, 2 when any metric
regressed (the gate), 1 when a bench is missing, fails to run, or emits
output the baseline paths cannot walk.
"""

import argparse
import json
import os
import subprocess
import sys


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def load_baseline(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            baseline = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        fail(f"cannot read baseline {path}: {err}")
    if "benches" not in baseline:
        fail(f"{path} is not a perf baseline (missing 'benches')")
    return baseline


def run_bench(bindir, bench):
    binary = os.path.join(bindir, bench["name"])
    if not os.path.exists(binary):
        fail(f"bench binary not found: {binary} (build it first)")
    command = [binary] + list(bench.get("args", []))
    try:
        result = subprocess.run(
            command, capture_output=True, text=True, check=True)
    except subprocess.CalledProcessError as err:
        fail(f"{' '.join(command)} exited {err.returncode}:\n{err.stderr}")
    return result.stdout


def walk_json(report, path):
    node = report
    for part in path.split("."):
        if isinstance(node, list):
            node = node[int(part)]
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            fail(f"path '{path}' does not resolve in the bench report "
                 f"(stuck at '{part}')")
    if not isinstance(node, (int, float)):
        fail(f"path '{path}' resolves to {type(node).__name__}, not a number")
    return float(node)


def csv_cells(stdout):
    """Numeric cells of every CSV row, excluding the first column (the
    bench CSVs put the x-axis — team counts — there, not a metric)."""
    cells = []
    for line in stdout.splitlines():
        for token in line.split(",")[1:]:
            try:
                cells.append(float(token))
            except ValueError:
                continue
    if not cells:
        fail("csv bench emitted no numeric cells")
    return cells


def extract(stdout, bench, path):
    if bench.get("format", "json") == "csv":
        cells = csv_cells(stdout)
        if path == "max":
            return max(cells)
        if path == "mean":
            return sum(cells) / len(cells)
        fail(f"unknown csv aggregate '{path}' (max|mean)")
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as err:
        fail(f"bench {bench['name']} did not emit JSON: {err}")
    return walk_json(report, path)


def main():
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument(
        "--baseline", default="bench/baselines/BENCH_baseline.json",
        help="baseline file (default: bench/baselines/BENCH_baseline.json)")
    parser.add_argument(
        "--bindir", default="build/bench",
        help="directory holding the bench binaries (default: build/bench)")
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="override the baseline's tolerance (relative, e.g. 0.02)")
    parser.add_argument(
        "--update", action="store_true",
        help="rewrite baseline values from this run instead of gating")
    parser.add_argument(
        "--only", default=None, metavar="ID",
        help="run only the baseline entry whose id (or name) matches")
    args = parser.parse_args()

    baseline = load_baseline(args.baseline)
    tolerance = (args.tolerance if args.tolerance is not None
                 else float(baseline.get("tolerance", 0.02)))
    if tolerance < 0:
        fail("--tolerance must be >= 0")

    benches = baseline["benches"]
    if args.only is not None:
        benches = [b for b in benches
                   if b.get("id", b["name"]) == args.only]
        if not benches:
            known = ", ".join(b.get("id", b["name"])
                              for b in baseline["benches"])
            fail(f"--only '{args.only}' matches no baseline entry "
                 f"(known: {known})")

    regressions = []
    checked = 0
    for bench in benches:
        label = bench.get("id", bench["name"])
        stdout = run_bench(args.bindir, bench)
        for metric in bench["metrics"]:
            current = extract(stdout, bench, metric["path"])
            checked += 1
            kind = metric.get("kind", "regression")
            if kind in ("lower_bound", "upper_bound"):
                if args.update:
                    metric["observed"] = round(current, 6)
                    continue
                if kind == "lower_bound":
                    limit = float(metric["min_value"])
                    bad = current < limit
                    what, side = "floor", "below"
                else:
                    limit = float(metric["max_value"])
                    bad = current > limit
                    what, side = "ceiling", "above"
                status = "REGRESSED" if bad else "ok"
                print(f"{status:9s} {label} {metric['path']}: {current:g} "
                      f"({what} {limit:g}, machine-dependent bound)")
                if bad:
                    regressions.append(
                        f"{label} {metric['path']}: {current:g} {side} "
                        f"{what} {limit:g}")
                continue
            if kind != "regression":
                fail(f"{label} {metric['path']}: unknown metric kind "
                     f"'{kind}' (regression|lower_bound|upper_bound)")
            if args.update:
                metric["value"] = round(current, 6)
                continue
            recorded = float(metric["value"])
            higher = bool(metric.get("higher_is_better", True))
            if higher:
                floor = recorded * (1.0 - tolerance)
                bad = current < floor
                bound = f">= {floor:g}"
            else:
                ceiling = recorded * (1.0 + tolerance)
                bad = current > ceiling
                bound = f"<= {ceiling:g}"
            status = "REGRESSED" if bad else "ok"
            print(f"{status:9s} {label} {metric['path']}: "
                  f"{current:g} (baseline {recorded:g}, need {bound})")
            if bad:
                regressions.append(
                    f"{label} {metric['path']}: {current:g} vs "
                    f"baseline {recorded:g} (tolerance {tolerance:.1%})")

    if args.update:
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=2)
            fh.write("\n")
        print(f"baseline refreshed: {checked} metric(s) -> {args.baseline}")
        return 0

    if regressions:
        print(f"\n{len(regressions)} metric(s) regressed beyond "
              f"{tolerance:.1%}:")
        for line in regressions:
            print(f"  {line}")
        return 2

    print(f"\nperf gate passed: {checked} metric(s) within {tolerance:.1%} "
          f"of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
