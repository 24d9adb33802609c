#!/usr/bin/env python3
"""Tests of the benchmark's own code.

    python3 perfbench/test_perfbench.py

The pair rule and the stamp check run on synthetic data. The C++ helpers
(percentile and its sample-count rule, the Poisson schedule, the
conservation check) run in the perfbench_selftest binary, and a corrupted
reference output must make the benchmark command fail; these build the
benchmark first (perfbench/run.py does it on first use).
"""

import json
import pathlib
import subprocess
import sys
import tempfile
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402


def record(workload, seed, metrics, cpu="cpu-a", failed=0):
    return {"workload": workload, "seed": seed, "trace": 0, "exit_code": 1 if failed else 0,
            "stamp": {"cpu": cpu, "nproc": 4, "simd_isa": "avx2", "backend": "simd",
                      "threads": 2, "workload": workload, "seed": seed, "trace": 0},
            "result": {"correct": failed == 0, "attempted": 10, "failed": failed,
                       "metrics": {k: {"value": v, "unit": "ms"} for k, v in metrics.items()}}}


def crashed(workload, seed):
    """The record run.py writes for a run that died before printing anything."""
    return {"workload": workload, "seed": seed, "trace": 0, "exit_code": 1,
            "stamp": None, "result": None}


class PairRule(unittest.TestCase):
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]

    def test_consistent_gain_is_improved(self):
        change = [v * 0.8 for v in self.parent]
        self.assertEqual(compare.judge_metric(self.parent, change, "lower", 0.1)[0], "improved")

    def test_gain_needs_nine_of_ten_wins(self):
        change = [v * 0.8 for v in self.parent]
        change[0] = change[1] = 20.0  # two lost pairs
        self.assertNotEqual(compare.judge_metric(self.parent, change, "lower", 0.5)[0], "improved")

    def test_gain_within_parent_iqr_is_not_improved(self):
        change = [v - 0.01 for v in self.parent]  # wins every pair, by a hair
        self.assertEqual(compare.judge_metric(self.parent, change, "lower", 0.1)[0], "unchanged")

    def test_higher_is_better_direction(self):
        change = [v * 1.2 for v in self.parent]
        self.assertEqual(compare.judge_metric(self.parent, change, "higher", 0.1)[0], "improved")
        self.assertEqual(compare.judge_metric(self.parent, change, "lower", 0.1)[0], "regressed")

    def test_same_distribution_is_unchanged(self):
        change = list(reversed(self.parent))
        self.assertEqual(compare.judge_metric(self.parent, change, "lower", 0.1)[0], "unchanged")

    def test_worse_than_bound_is_regressed(self):
        change = [v * 1.3 for v in self.parent]
        self.assertEqual(compare.judge_metric(self.parent, change, "lower", 0.1)[0], "regressed")

    def test_spread_wider_than_bound_is_unresolved(self):
        noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
        change = list(reversed(noisy))
        self.assertEqual(compare.judge_metric(noisy, change, "lower", 0.1)[0], "unresolved")

    def test_fewer_than_ten_pairs_is_unresolved(self):
        change = [v * 0.5 for v in self.parent[:9]]
        self.assertEqual(compare.judge_metric(self.parent[:9], change, "lower", 0.1)[0], "unresolved")

    def test_row_is_worst_status(self):
        self.assertEqual(compare.row_status(["improved", "unchanged"]), "improved")
        self.assertEqual(compare.row_status(["improved", "regressed"]), "regressed")
        self.assertEqual(compare.row_status(["unchanged", "unresolved"]), "unresolved")


class Judge(unittest.TestCase):
    metrics = {"lat_ms": {"name": "lat_ms", "unit": "ms", "better": "lower", "bound": 0.1}}

    def test_refuses_differing_host_stamps(self):
        par = [record("infer", s, {"lat_ms": 10.0}) for s in range(10)]
        chg = [record("infer", s, {"lat_ms": 10.0}, cpu="cpu-b") for s in range(10)]
        with self.assertRaises(compare.StampMismatch):
            compare.judge(par, chg, self.metrics)

    def test_one_row_per_workload(self):
        par = [record(w, s, {"lat_ms": 10.0 + s / 100}) for w in ("infer", "serve") for s in range(10)]
        chg = [record("infer", s, {"lat_ms": 8.0 + s / 100}) for s in range(10)]
        chg += [record("serve", s, {"lat_ms": 10.0 + s / 100}) for s in range(10)]
        rows = compare.judge(par, chg, self.metrics)
        self.assertEqual(rows["infer"][0], "improved")
        self.assertEqual(rows["serve"][0], "unchanged")

    def test_more_failures_is_regressed(self):
        par = [record("infer", s, {"lat_ms": 10.0}) for s in range(10)]
        chg = [record("infer", s, {"lat_ms": 10.0}, failed=1 if s == 3 else 0) for s in range(10)]
        self.assertEqual(compare.judge(par, chg, self.metrics)["infer"][0], "regressed")

    def test_a_crashed_run_is_regressed(self):
        par = [record("infer", s, {"lat_ms": 10.0}) for s in range(10)]
        chg = [record("infer", s, {"lat_ms": 10.0}) for s in range(10) if s != 4]
        chg.append(crashed("infer", 4))
        status, details = compare.judge(par, chg, self.metrics)["infer"]
        self.assertEqual(status, "regressed")
        self.assertIn(("failed", "regressed", "1 failed operations vs 0"), details)

    def test_crashing_on_every_seed_is_regressed(self):
        par = [record("infer", s, {"lat_ms": 10.0}) for s in range(10)]
        chg = [crashed("infer", s) for s in range(10)]
        self.assertEqual(compare.judge(par, chg, self.metrics)["infer"][0], "regressed")

    def test_records_are_read_from_disk_with_crashes(self):
        with tempfile.TemporaryDirectory() as d:
            for r in [record("infer", 0, {"lat_ms": 10.0}), crashed("infer", 1),
                      dict(record("infer", 2, {"lat_ms": 10.0}), trace=1)]:
                pathlib.Path(d, "%s-%d-%d.json" % (r["workload"], r["seed"], r["trace"])).write_text(
                    json.dumps(r))
            self.assertEqual(sorted(r["seed"] for r in compare.load_records(d)), [0, 1])


class Program(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_cpp_helpers(self):
        r = subprocess.run([str(run.SELFTEST)], capture_output=True, text=True)
        self.assertEqual(r.returncode, 0, r.stdout)

    def bench(self, workload, *extra, trace="0"):
        return subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                               "--seed", "3", "--seconds", "1", "--trace", trace, *extra],
                              capture_output=True, text=True, cwd=run.ROOT)

    def test_every_workload_prints_every_listed_metric(self):
        manifest = json.loads(run.BENCHMARK.read_text())
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    r = self.bench(workload, trace=trace)
                    self.assertEqual(r.returncode, 0, r.stderr)
                    metrics = json.loads(r.stdout.splitlines()[-1])["metrics"]
                    self.assertEqual({n: m["unit"] for n, m in metrics.items()},
                                     {m["name"]: m["unit"] for m in manifest[key]})

    def test_a_result_off_the_manifest_is_reported(self):
        result = {"metrics": {"latency_ms": {"value": None, "unit": "s"}, "extra": {"value": 1, "unit": "ms"}}}
        problems = run.manifest_problems(result, "0")
        self.assertIn("not in BENCHMARK.json: extra", problems)
        self.assertIn("latency_ms in s, not ms", problems)
        self.assertIn("latency_ms is None", problems)
        self.assertIn("missing setup_s", problems)

    def test_corrupted_reference_fails_the_command(self):
        for workload in ("infer", "serve"):
            with self.subTest(workload=workload):
                ok = self.bench(workload)
                self.assertEqual(ok.returncode, 0, ok.stderr)
                self.assertTrue(json.loads(ok.stdout.splitlines()[-1])["correct"])
                bad = self.bench(workload, "--corrupt-reference")
                self.assertNotEqual(bad.returncode, 0)
                last = json.loads(bad.stdout.splitlines()[-1])
                self.assertFalse(last["correct"])
                self.assertGreater(last["failed"], 0)


if __name__ == "__main__":
    unittest.main()
