"""Tests of the host-time benchmark (hostbench/).

    python3 -m unittest discover -s hostbench/tests

The unit tests cover the self-time subtraction and the host-time estimator;
the smoke test builds the driver (first run: about a minute) and runs every
workload at tiny scale, traced and untraced.
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(run.self_times([["a", 10, 50, -1, 0]]), [40])

    def test_children_are_subtracted(self):
        spans = [
            ["root", 0, 100, -1, 0],
            ["a", 10, 30, 0, 0],
            ["b", 40, 70, 0, 0],
        ]
        self.assertEqual(run.self_times(spans), [50, 20, 30])

    def test_overlapping_children_count_once(self):
        spans = [
            ["root", 0, 100, -1, 0],
            ["a", 10, 60, 0, 0],
            ["b", 40, 80, 0, 0],
        ]
        self.assertEqual(run.self_times(spans)[0], 30)

    def test_children_are_clipped_to_the_parent(self):
        spans = [["root", 20, 60, -1, 0], ["a", 0, 30, 0, 0]]
        self.assertEqual(run.self_times(spans)[0], 30)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [
            ["root", 0, 100, -1, 0],
            ["mid", 0, 50, 0, 0],
            ["leaf", 0, 20, 1, 0],
        ]
        self.assertEqual(run.self_times(spans), [50, 30, 20])

    def test_covered_ns_merges_intervals(self):
        self.assertEqual(run.covered_ns([(0, 10), (5, 15), (20, 25)]), 20)
        self.assertEqual(run.covered_ns([]), 0)

    def test_layer_seconds_takes_the_fastest_repeat(self):
        spans = [
            ["timed", 0, 5000, -1, 0],
            ["serve.run", 0, 2000, 0, 0],
            ["serve.run", 2000, 4000, 0, 0],
            ["timed", 10000, 13000, -1, 2],
            ["serve.run", 10000, 13000, 3, 2],
        ]
        seconds = run.layer_seconds(spans, run.self_times(spans))
        self.assertAlmostEqual(seconds["serve.run"], 3e-6)
        self.assertAlmostEqual(seconds["timed"], 0.0)


def traced_raw(spans):
    """Raw driver output of a traced run with the given spans."""
    repeat = {"setup_s": 1.0, "timed_s": 1.0, "run_s": 1.0}
    return {
        "jobs_per_repeat": 10, "peak_rss_mb": 1.0, "sim": {}, "layers": {},
        "repeats": [dict(repeat, traced=True), dict(repeat, traced=False)],
        "checks": {"attempted": 3, "failed": 0, "failures": []},
        "spans": spans,
    }


class SpanCoverageTest(unittest.TestCase):
    def test_covered_timed_phase_passes(self):
        result = run.summarize(traced_raw(
            [["timed", 0, 100, -1, 0], ["serve.run", 0, 96, 0, 0]]), True)
        self.assertTrue(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (4, 0))

    def test_under_covered_timed_phase_fails(self):
        result = run.summarize(traced_raw(
            [["timed", 0, 100, -1, 0], ["serve.run", 0, 80, 0, 0]]), True)
        self.assertFalse(result["correct"])
        self.assertEqual((result["attempted"], result["failed"]), (4, 1))


class HostEstimateTest(unittest.TestCase):
    def test_single_sample(self):
        self.assertEqual(run.host_estimate([2.5]), 2.5)

    def test_ignores_slow_repeats(self):
        fast = [1.00, 1.01, 1.02, 0.99]
        slow = [1.7, 1.8, 1.75, 1.72, 1.9, 1.69, 1.71, 1.73]
        self.assertEqual(run.host_estimate(slow + fast), 0.99)

    def test_order_does_not_matter(self):
        samples = [3.0, 1.0, 2.0, 5.0, 4.0, 6.0]
        self.assertEqual(run.host_estimate(samples),
                         run.host_estimate(sorted(samples)))

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            run.host_estimate([])

    def test_timed_phase_sums_each_parts_fastest_repeat(self):
        # Each repeat was slowed in a different unit; no repeat was fast
        # throughout, but every unit was fast in some repeat.
        repeats = [{"part_s": [1.0, 3.0]}, {"part_s": [3.0, 1.0]}]
        self.assertEqual(run.timed_estimate(repeats), 2.0)


class ContractTest(unittest.TestCase):
    def test_benchmark_json_names_what_run_py_prints(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["per_layer"]],
                         list(run.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))


class SmokeTest(unittest.TestCase):
    """Every named metric prints with its unit and a finite value."""

    def run_bench(self, workload, trace):
        done = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"),
             "--workload", workload, "--seed", "3", "--seconds", "0",
             "--trace", str(trace), "--scale", "smoke"],
            cwd=ROOT, stdout=subprocess.PIPE, timeout=900, check=True,
            text=True)
        return json.loads(done.stdout.strip().splitlines()[-1])

    def test_every_workload_prints_every_metric(self):
        for workload in run.WORKLOADS:
            for trace, declared in ((0, run.END_TO_END), (1, run.PER_LAYER)):
                with self.subTest(workload=workload, trace=trace):
                    result = self.run_bench(workload, trace)
                    self.assertEqual(
                        set(result), {"correct", "attempted", "failed",
                                      "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    self.assertEqual(list(result["metrics"]),
                                     [name for name, _ in declared])
                    for name, unit in declared:
                        metric = result["metrics"][name]
                        self.assertEqual(metric["unit"], unit, name)
                        self.assertTrue(math.isfinite(metric["value"]), name)


if __name__ == "__main__":
    unittest.main()
