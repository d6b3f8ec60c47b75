#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The end-to-end cases build the benchmark (once per checkout) and run short
traced and corrupted runs of s1-golden.
"""

import copy
import json
import os
import re
import statistics
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run as bench  # noqa: E402


def run_bench(*arguments):
    completed = subprocess.run(
        [sys.executable, os.path.join(bench.HERE, "run.py")] + list(arguments),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=bench.ROOT)
    lines = completed.stdout.strip().splitlines()
    return completed.returncode, (json.loads(lines[-1]) if lines else None)


def table_metric_names(readme_text):
    """Metric names in the README's per-layer table, <sys>/<layer> expanded."""
    section = readme_text.split("## Per-layer metrics", 1)[1].split("\n### ", 1)[0]
    names = set()
    for line in section.splitlines():
        if not line.startswith("| ") or line.startswith("| layer") or line.startswith("|---"):
            continue
        for token in re.findall(r"`([a-z_]+\.[A-Za-z0-9_.<>]+|tracing_overhead)`", line):
            if "<sys>" in token:
                names.update(token.replace("<sys>", sys_id) for sys_id in bench.SYSTEMS)
            elif "<layer>" in token:
                names.update(token.replace("<layer>", layer) for layer in bench.LAYERS)
            else:
                names.add(token)
    return names


class StatisticsTest(unittest.TestCase):
    def test_median_and_quartiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0]
        self.assertEqual(bench.median(values), 3.0)
        self.assertEqual(bench.quartiles(values), tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(bench.quartiles([7.0]), (7.0, 7.0, 7.0))
        with self.assertRaises(ValueError):
            bench.median([])

    def test_percentile_is_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(bench.percentile(values, 50), 50)
        self.assertEqual(bench.percentile(values, 99), 99)
        self.assertEqual(bench.percentile(values, 100), 100)

    def test_tail_keeps_ten_samples_beyond(self):
        # p50 of 20 samples has exactly ten above it; 19 samples have nine.
        self.assertEqual(bench.tail_percentile(list(range(20))), (50.0, 9))
        self.assertEqual(bench.tail_percentile(list(range(19))), (None, None))
        self.assertEqual(bench.tail_percentile(list(range(100)))[0], 90.0)
        self.assertEqual(bench.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(bench.tail_percentile(list(range(10000)))[0], 99.9)
        for count in (20, 57, 100, 999, 1000, 4321):
            pct, value = bench.tail_percentile(list(range(count)))
            beyond = sum(1 for v in range(count) if v > value)
            self.assertGreaterEqual(beyond, 10, count)


class HostSpeedScalingTest(unittest.TestCase):
    REF = bench.CALIBRATION_REF_S

    def raw(self, rounds, calibrations, injections=86):
        return {"rounds": rounds, "round_calibration_s": calibrations,
                "injection_rates": [injections / (0.5 * t) for t in rounds],
                "peak_rss_mb": 24.0}

    def test_reference_speed_leaves_times_unchanged(self):
        self.assertEqual(bench.scaled_times([0.1, 0.2], [self.REF, self.REF]), [0.1, 0.2])

    def test_a_uniformly_slower_host_reads_the_same(self):
        fast = bench.end_to_end_metrics(self.raw([0.10, 0.11, 0.12], [self.REF] * 3),
                                        [(0.04, self.REF)])
        slow = bench.end_to_end_metrics(self.raw([0.13, 0.143, 0.156], [1.3 * self.REF] * 3),
                                        [(0.052, 1.3 * self.REF)])
        for name in ("setup_s", "campaign_s", "injections_per_s"):
            self.assertAlmostEqual(fast[name], slow[name], delta=1e-9 * fast[name], msg=name)
        self.assertAlmostEqual(fast["campaign_s"], 0.11)
        self.assertAlmostEqual(fast["injections_per_s"], 86 / (0.5 * 0.11))

    def test_every_time_needs_a_calibration(self):
        with self.assertRaises(bench.BenchError):
            bench.scaled_times([0.1, 0.2], [self.REF])
        with self.assertRaises(bench.BenchError):
            bench.scaled_times([], [])


class NameGrammarTest(unittest.TestCase):
    def test_valid_names(self):
        for name in ("setup_s", "sim.deploy_ms.yarn", "core.inject_ms.p50", "s1-golden",
                     "0x", "a" * 64):
            self.assertTrue(bench.valid_name(name), name)

    def test_invalid_names(self):
        for name in ("", "_lead", ".lead", "-lead", "has space", "slash/name", "a" * 65,
                     "ünïcode", None, 3):
            self.assertFalse(bench.valid_name(name), name)


class BenchmarkJsonTest(unittest.TestCase):
    def setUp(self):
        self.config = bench.load_benchmark()

    def test_repository_file_is_valid(self):
        self.assertEqual(self.config["command"], ["python3", "perfbench/run.py"])
        self.assertEqual([w["name"] for w in self.config["workloads"]],
                         ["s1-golden", "s8", "netfault-replay-s4"])
        end_to_end = {m["name"] for m in self.config["end_to_end"]}
        self.assertEqual(end_to_end, {"setup_s", "campaign_s", "injections_per_s",
                                      "peak_rss_mb"})
        setup = next(m for m in self.config["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in self.config["end_to_end"]))

    def assert_rejected(self, mutate):
        config = copy.deepcopy(self.config)
        mutate(config)
        with self.assertRaises(bench.BenchError):
            bench.validate_benchmark(config)

    def test_rejects_broken_files(self):
        self.assert_rejected(lambda c: c.update(extra=1))
        self.assert_rejected(lambda c: c.pop("per_layer"))
        self.assert_rejected(lambda c: c.update(run_seconds=61))
        self.assert_rejected(lambda c: c.update(run_seconds=True))
        self.assert_rejected(lambda c: c.update(paths=["/abs"]))
        self.assert_rejected(lambda c: c.update(paths=["../out"]))
        self.assert_rejected(lambda c: c.update(command=["python3", "/x/run.py"]))
        self.assert_rejected(lambda c: c.update(workloads=c["workloads"][:1]))
        self.assert_rejected(lambda c: c["workloads"][0].update(why="two\nlines"))
        self.assert_rejected(lambda c: c["end_to_end"][1].update(bound=0.3))
        self.assert_rejected(lambda c: c["end_to_end"][1].update(bound=0))
        self.assert_rejected(lambda c: c["end_to_end"][1].update(better="faster"))
        self.assert_rejected(lambda c: c["end_to_end"].pop(0))  # setup_s
        self.assert_rejected(lambda c: c["per_layer"].append(dict(c["per_layer"][0])))
        self.assert_rejected(lambda c: c["per_layer"][0].update(unit="no spaces"))
        self.assert_rejected(lambda c: c["per_layer"][0].update(name="bad name"))

    def test_rejects_unreadable_file(self):
        with self.assertRaises(bench.BenchError):
            bench.load_benchmark(os.path.join(bench.HERE, "missing.json"))


class SpanSelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        def span(span_id, parent, layer, start, end):
            return {"id": span_id, "parent": parent, "layer": layer, "name": str(span_id),
                    "sys": "", "start_us": start, "end_us": end, "thread": 0}
        spans = [span(1, 0, "bench", 0, 10000),
                 span(2, 1, "core", 1000, 5000),
                 span(3, 1, "core", 3000, 7000),  # overlaps span 2 (parallel worker)
                 span(4, 2, "sim", 2000, 3000)]
        self_ms = bench.SpanIndex(spans).self_ms_by_layer()
        self.assertAlmostEqual(self_ms["bench"], 4.0)  # 10 ms minus the 6 ms union
        self.assertAlmostEqual(self_ms["core"], 3.0 + 4.0)
        self.assertAlmostEqual(self_ms["sim"], 1.0)


class EndToEndTest(unittest.TestCase):
    """Short runs of the built benchmark."""

    @classmethod
    def setUpClass(cls):
        bench.build()
        cls.config = bench.load_benchmark()

    def test_traced_run_prints_every_per_layer_metric(self):
        status, result = run_bench("--workload", "s1-golden", "--seed", "2019",
                                   "--seconds", "1", "--trace", "1")
        self.assertEqual(status, 0)
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in self.config["per_layer"]}
        self.assertEqual(set(result["metrics"]), set(declared))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], declared[name], name)
        with open(os.path.join(bench.HERE, "README.md"), encoding="utf-8") as handle:
            self.assertEqual(table_metric_names(handle.read()), set(declared))

    def test_corrupted_reference_fails_the_run(self):
        # Seed 2019 corrupts a golden file's bytes; seed 2020 a pinned digest.
        for seed in ("2019", "2020"):
            status, result = run_bench("--workload", "s1-golden", "--seed", seed,
                                       "--seconds", "0.3", "--trace", "0",
                                       "--corrupt-reference")
            self.assertEqual(status, 1, seed)
            self.assertFalse(result["correct"], seed)
            self.assertGreater(result["failed"], 0, seed)


if __name__ == "__main__":
    unittest.main()
