#!/usr/bin/env python3
"""Host-time benchmark of the ghsum simulator: one command, three workloads.

    python3 hostbench/run.py --workload serve_open --seed 7 --seconds 10 --trace 0

Builds hostbench/ (the simulator's libraries plus the ghs_hostbench driver)
into .bench_build/hostbench on first use, runs one workload for --seconds of
wall time, checks its outputs, and prints as the last line of stdout one JSON
object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (see hostbench/README.md).
Build output and diagnostics go to stderr.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "hostbench")
BINARY = os.path.join(BUILD_DIR, "ghs_hostbench")

WORKLOADS = ("serve_open", "fleet_observed", "paper_repro")

# (name, unit) of every metric a --trace 0 run prints.
END_TO_END = [
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_gbps", "GB/s"),
    ("sim_p99_ms", "sim_ms"),
    ("ok_frac", "ratio"),
]

# Span names whose self time per repeat is reported as <name>_s.
LAYER_SPANS = [
    "workload.gen", "model.warm",
    "paper.table1", "paper.um_a1_opt", "paper.um_a2_opt",
    "serve.build", "serve.submit", "serve.run", "serve.report",
    "cluster.build", "cluster.submit", "cluster.run", "cluster.report",
    "telemetry.export", "trace.export", "timeseries.export",
    "profile.export", "slo.eval",
]

# Counters the driver reads from public getters, reports and telemetry.
COUNTERS = [
    ("workload.jobs", "count"),
    ("model.misses", "count"),
    ("model.hits", "count"),
    ("model.timed_misses", "count"),
    ("tuner.probes", "count"),
    ("paper.err_max", "ratio"),
    ("paper.graded", "count"),
    ("gpu.kernels", "count"),
    ("gpu.waves", "count"),
    ("um.migrations", "count"),
    ("um.migrated_gb", "GB"),
    ("um.remote_gb", "GB"),
    ("sim.events", "count"),
    ("sim.peak_queue", "count"),
    ("serve.launches", "count"),
    ("serve.queue_hwm", "count"),
    ("serve.rejected", "count"),
    ("cluster.transfers", "count"),
    ("cluster.transfer_gb", "GB"),
    ("cluster.remote_frac", "ratio"),
    ("cluster.spills", "count"),
    ("cluster.spilled_saved", "count"),
    ("cluster.steals", "count"),
    ("cluster.stolen_jobs", "count"),
    ("cluster.imbalance", "ratio"),
    ("membership.replayed", "count"),
    ("membership.dup_suppressed", "count"),
    ("membership.transitions", "count"),
    ("membership.detect_ms", "sim_ms"),
    ("fault.retries", "count"),
    ("fault.gpu_failures", "count"),
    ("fault.breaker_opens", "count"),
    ("fault.shed", "count"),
    ("trace.spans_kept", "count"),
    ("trace.dropped_by_sampler", "count"),
    ("timeseries.samples", "count"),
    ("profile.samples", "count"),
]

# Every metric a --trace 1 run prints.
PER_LAYER = (
    [(name + "_s", "s") for name in LAYER_SPANS]
    + COUNTERS
    + [
        ("sim.host_ns_per_event", "ns"),
        ("serve.batched_frac", "ratio"),
        ("serve.tuner_hit_frac", "ratio"),
        ("fault.retry_frac", "ratio"),
        ("obs.overhead_frac", "ratio"),
        ("bench.check_frac", "ratio"),
        ("bench.span_coverage", "ratio"),
        ("bench.trace_overhead_frac", "ratio"),
    ]
)

TOP_LEVEL = ("setup", "timed", "check")

# A traced run whose spans cover less of the timed phase fails its check.
MIN_SPAN_COVERAGE = 0.95


def host_estimate(samples):
    """Host time of one phase from its repeats: the fastest one.

    On a shared VM, neighbours only ever slow a repeat down, and the
    slowdown comes in episodes that last seconds (a vCPU whose host core is
    busy runs up to 1.7x slower). The driver moves across every vCPU, one per
    repeat, so the fastest repeat is the one that ran undisturbed; its time
    is the steadiest figure from run to run, steadier than any median."""
    if not samples:
        raise ValueError("no samples")
    return min(samples)


def timed_estimate(repeats):
    """Host time of the timed phase from its repeats: the sum over its
    units (each public call, or each protocol unit of paper_repro) of each
    unit's fastest repeat. A unit more often fits inside a quiet spell of
    the host than the whole phase does."""
    units = zip(*(r["part_s"] for r in repeats))
    return sum(host_estimate(list(unit)) for unit in units)


def covered_ns(intervals):
    """Length of the union of [start, end) intervals."""
    total = 0
    reach = None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    child spans cover. Spans are [name, start_ns, end_ns, parent, run] with
    parent an index into `spans` (-1 for a root)."""
    children = [[] for _ in spans]
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append(span)
    result = []
    for span, kids in zip(spans, children):
        start, end = span[1], span[2]
        clipped = [(max(k[1], start), min(k[2], end)) for k in kids]
        clipped = [(a, b) for a, b in clipped if b > a]
        result.append(end - start - covered_ns(clipped))
    return result


def layer_seconds(spans, own):
    """Host seconds of each span name: its spans' self time summed within
    each traced repeat, then the fastest repeat, as host_estimate takes it."""
    per_repeat = {}
    for span, self_ns in zip(spans, own):
        key = (span[0], span[4])
        per_repeat[key] = per_repeat.get(key, 0) + self_ns
    samples = {}
    for (name, _), ns in per_repeat.items():
        samples.setdefault(name, []).append(ns / 1e9)
    return {name: host_estimate(s) for name, s in samples.items()}


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def end_to_end_metrics(raw):
    repeats = raw["repeats"]
    values = {
        "jobs_per_s": raw["jobs_per_repeat"] / timed_estimate(repeats),
        "setup_s": host_estimate([r["setup_s"] for r in repeats]),
        "peak_rss_mb": raw["peak_rss_mb"],
    }
    values.update(raw["sim"])
    return values


def per_layer_metrics(raw):
    spans = raw["spans"]
    layers = raw["layers"]
    own = self_times(spans)
    self_by_name = {}
    total_by_name = {}
    for span, self_ns in zip(spans, own):
        self_by_name[span[0]] = self_by_name.get(span[0], 0) + self_ns
        total_by_name[span[0]] = (
            total_by_name.get(span[0], 0) + span[2] - span[1])
    traced_ns = sum(total_by_name.get(name, 0) for name in TOP_LEVEL)

    seconds = layer_seconds(spans, own)
    values = {name + "_s": seconds.get(name, 0.0) for name in LAYER_SPANS}
    for name, _ in COUNTERS:
        values[name] = layers.get(name, 0.0)

    repeats = raw["repeats"]
    run_s = host_estimate([r["run_s"] for r in repeats])
    values["sim.host_ns_per_event"] = ratio(run_s * 1e9,
                                            layers.get("sim.events", 0))
    values["serve.batched_frac"] = ratio(layers.get("serve.batched_jobs", 0),
                                         layers.get("serve.served", 0))
    hits = layers.get("serve.tuner_hits", 0)
    values["serve.tuner_hit_frac"] = ratio(
        hits, hits + layers.get("serve.tuner_misses", 0))
    values["fault.retry_frac"] = ratio(layers.get("fault.retries", 0),
                                       layers.get("serve.launches", 0))
    traced = [r for r in repeats if r["traced"]]
    untraced = [r for r in repeats if not r["traced"]]
    twins = [r["twin_run_s"] for r in traced if "twin_run_s" in r]
    values["obs.overhead_frac"] = (
        1.0 - host_estimate(twins) / host_estimate([r["run_s"] for r in traced])
        if twins else 0.0)
    values["bench.check_frac"] = ratio(self_by_name.get("check", 0),
                                       traced_ns)
    values["bench.span_coverage"] = 1.0 - ratio(
        self_by_name.get("timed", 0), total_by_name.get("timed", 0))
    if traced and untraced:
        values["bench.trace_overhead_frac"] = 1.0 - (
            host_estimate([r["timed_s"] for r in untraced])
            / host_estimate([r["timed_s"] for r in traced]))
    else:
        values["bench.trace_overhead_frac"] = 0.0
    return values


def summarize(raw, trace):
    """The benchmark's result line from the driver's raw samples."""
    declared = PER_LAYER if trace else END_TO_END
    values = per_layer_metrics(raw) if trace else end_to_end_metrics(raw)
    metrics = {}
    finite = True
    for name, unit in declared:
        value = values.get(name)
        finite = finite and isinstance(value, (int, float)) and math.isfinite(value)
        metrics[name] = {"value": value, "unit": unit}
    attempted = raw["checks"]["attempted"]
    failed = raw["checks"]["failed"]
    if trace:
        attempted += 1
        if not values["bench.span_coverage"] >= MIN_SPAN_COVERAGE:
            failed += 1
            print("hostbench: check failed: spans cover "
                  f"{values['bench.span_coverage']:.3f} of the timed phase, "
                  f"below {MIN_SPAN_COVERAGE}", file=sys.stderr)
    return {
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def build():
    """Configures once, then brings the driver up to date."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("hostbench: the simulator sources (src/) are missing next to "
                 "hostbench/; run from a full checkout")
    log = sys.stderr
    cache = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(BUILD_DIR)  # configured for another checkout
    if not os.path.isfile(cache):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", "4"],
                   stdout=log, stderr=log, check=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--scale", default="full", choices=("full", "smoke"),
                        help="smoke: tiny inputs for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit(f"hostbench: build failed: {error}")

    command = [BINARY, f"--workload={args.workload}", f"--seed={args.seed}",
               f"--seconds={args.seconds}", f"--scale={args.scale}"]
    if args.trace:
        command.append("--trace")
    done = subprocess.run(command, stdout=subprocess.PIPE, timeout=170,
                          check=False)
    if done.returncode != 0:
        sys.exit(f"hostbench: driver exited with {done.returncode}")
    raw = json.loads(done.stdout)
    for failure in raw["checks"]["failures"]:
        print(f"hostbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps(summarize(raw, args.trace == 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
