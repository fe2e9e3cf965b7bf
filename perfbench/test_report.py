"""Tests of the benchmark's helpers. Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import math
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import report  # noqa: E402
import run  # noqa: E402


def raw_run(trace=False, attempted=6, failed=0, drop=None, errors=()):
    """A raw JVM result with three samples per catalog metric."""
    samples, units = {}, {}
    for name, unit in report.catalog(trace):
        if name in ("ok_frac", drop):
            continue
        samples[name] = [3.0, 1.0, 2.0]
        units[name] = unit
    return {"env": {"workload": "w"}, "samples": samples, "units": units,
            "fits": [{"algo": "M", "kind": "train", "round": 0, "ok": True, "seconds": 1.5,
                      "objectives": [-10.25, -3.0000000000000004]}],
            "errors": list(errors), "attempted": attempted, "failed": failed}


class NameTest(unittest.TestCase):
    def test_catalog_names_and_units_are_valid_and_unique(self):
        for trace in (False, True):
            names = [n for n, _ in report.catalog(trace)]
            self.assertEqual(len(names), len(set(names)))
            for name, unit in report.catalog(trace):
                self.assertRegex(name, report.NAME_RE)
                self.assertRegex(unit, report.UNIT_RE)

    def test_name_regex_rejects_bad_names(self):
        for bad in ("", "_lead", ".lead", "a b", "a/b", "x" * 65, "é"):
            self.assertIsNone(report.NAME_RE.match(bad), bad)
        for good in ("a", "9", "train_s.M", "linalg.quad_ns.dS", "x" * 64):
            self.assertIsNotNone(report.NAME_RE.match(good), good)

    def test_unit_regex(self):
        for good in ("s", "ms", "1/s", "%", "count", "MB"):
            self.assertIsNotNone(report.UNIT_RE.match(good), good)
        for bad in ("", "a b", "x" * 17):
            self.assertIsNone(report.UNIT_RE.match(bad), bad)

    def test_per_layer_covers_every_algorithm(self):
        names = {n for n, _ in report.PER_LAYER}
        for prefix in ("core.iter_s", "core.driver_s", "spark.shuffle_bytes",
                       "spark.result_bytes", "jvm.old_gen_peak_mb", "trace.overhead_s"):
            for a in report.ALGOS:
                self.assertIn(f"{prefix}.{a}", names)


class StatsTest(unittest.TestCase):
    def test_median(self):
        self.assertEqual(report.median([3.0]), 3.0)
        self.assertEqual(report.median([5.0, 1.0, 3.0]), 3.0)
        self.assertEqual(report.median([4.0, 1.0, 3.0, 2.0]), 2.5)
        with self.assertRaises(ValueError):
            report.median([])

    def test_tail_percentile_needs_ten_samples_beyond(self):
        self.assertIsNone(report.tail_percentile(list(range(10))))
        self.assertEqual(report.tail_percentile([float(x) for x in range(1, 12)]), (9, 1.0))
        self.assertEqual(report.tail_percentile([float(x) for x in range(20, 0, -1)]), (50, 10.0))
        p, v = report.tail_percentile([float(x) for x in range(1, 101)])
        self.assertEqual((p, v), (90, 90.0))
        for n in range(11, 300):
            p, v = report.tail_percentile(list(range(1, n + 1)))
            self.assertGreaterEqual(n - v, 10, n)  # v is the rank: n - v samples beyond
            self.assertLess(n - math.ceil((p + 1) * n / 100), 10, n)  # p is the highest

    def test_summary_reports_sample_count(self):
        s = report.summary([2.0, 1.0, 3.0])
        self.assertEqual(s, {"median": 2.0, "n": 3, "tail": None})


class ResultSchemaTest(unittest.TestCase):
    def test_untraced_result_has_exactly_the_contract_keys(self):
        r = report.build_result(raw_run(), trace=False)
        self.assertEqual(list(r), ["correct", "attempted", "failed", "metrics"])
        self.assertEqual(set(r["metrics"]), {n for n, _ in report.END_TO_END})
        self.assertEqual(r["metrics"]["train_s.M"], {"value": 2.0, "unit": "s"})
        self.assertEqual(r["metrics"]["ok_frac"], {"value": 1.0, "unit": "ratio"})
        self.assertTrue(r["correct"])
        json.loads(json.dumps(r))

    def test_traced_result_reports_every_layer_metric(self):
        r = report.build_result(raw_run(trace=True), trace=True)
        self.assertEqual(set(r["metrics"]), {n for n, _ in report.PER_LAYER})

    def test_failures_lower_ok_frac_and_clear_correct(self):
        r = report.build_result(raw_run(attempted=6, failed=2, errors=["F round 0: diverged"]),
                                trace=False)
        self.assertFalse(r["correct"])
        self.assertEqual(r["failed"], 2)
        self.assertAlmostEqual(r["metrics"]["ok_frac"]["value"], 4 / 6)

    def test_missing_metric_is_an_error(self):
        with self.assertRaises(ValueError):
            report.build_result(raw_run(drop="train_s.F"), trace=False)

    def test_wrong_unit_is_an_error(self):
        raw = raw_run()
        raw["units"]["setup_s"] = "ms"
        with self.assertRaises(ValueError):
            report.build_result(raw, trace=False)

    def test_validate_rejects_malformed_results(self):
        good = report.build_result(raw_run(), trace=False)
        bad = [
            dict(good, extra=1),
            {**good, "correct": 1},
            {**good, "attempted": 0},
            {**good, "failed": True},
            {**good, "metrics": {**good["metrics"], "train_s.M": {"value": math.nan, "unit": "s"}}},
            {**good, "metrics": {**good["metrics"], "train_s.M": {"value": 1.0, "unit": "s", "n": 3}}},
        ]
        for r in bad:
            with self.assertRaises(ValueError):
                report.validate(r, trace=False)

    def test_info_lines_carry_counts_and_objectives(self):
        lines = report.info_lines(raw_run(), trace=False)
        self.assertIn("metric train_s.F median=2 s n=3 no tail percentile (n <= 10)", lines)
        self.assertTrue(any(l.startswith("info f_speedup") for l in lines))
        self.assertIn("objectives M train round=0 ok=True seconds=1.5000: "
                      "-10.25 -3.0000000000000004", lines)


class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json at the repository root names the catalog's metrics."""

    def setUp(self):
        path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
        if not path.is_file():
            self.skipTest("no BENCHMARK.json")
        self.bench = json.loads(path.read_text())

    def test_metrics_and_workloads_match(self):
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["end_to_end"]],
                         list(report.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in self.bench["per_layer"]],
                         list(report.PER_LAYER))
        self.assertEqual({w["name"] for w in self.bench["workloads"]}, set(run.WORKLOADS))

    def test_setup_bound_is_the_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.bench["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))


if __name__ == "__main__":
    unittest.main()
