#!/usr/bin/env python3
"""Unit checks of compare_bench.py's verdicts and argument rules.

    python3 scripts/compare_bench_test.py

Runs no benchmark: the argument checks fail before any build.
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare_bench  # noqa: E402

OPS = {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def runs(values):
    return [{"metrics": {"ops_per_s": v}} for v in values]


class Summarise(unittest.TestCase):
    def verdict(self, parent, change):
        return compare_bench.summarise(OPS, runs(parent), runs(change))

    def test_one_won_pair_is_no_gain(self):
        row = self.verdict([100.0], [200.0])
        self.assertEqual(row["wins"], 1)
        self.assertEqual(row["verdict"], "within bound")

    def test_nine_clear_wins_are_no_gain(self):
        parent = [100.0 + i for i in range(9)]
        row = self.verdict(parent, [v + 50.0 for v in parent])
        self.assertEqual(row["wins"], 9)
        self.assertNotEqual(row["verdict"], "gain")

    def test_ten_clear_wins_are_a_gain(self):
        parent = [100.0 + i for i in range(10)]
        row = self.verdict(parent, [v + 50.0 for v in parent])
        self.assertEqual(row["verdict"], "gain")

    def test_gain_inside_the_parent_spread_is_no_gain(self):
        parent = [100.0 + 2.0 * i for i in range(10)]
        row = self.verdict(parent, [v + 1.0 for v in parent])
        self.assertEqual(row["wins"], 10)
        self.assertEqual(row["verdict"], "within bound")

    def test_loss_past_the_bound_is_a_regression(self):
        parent = [100.0 + 0.1 * i for i in range(10)]
        row = self.verdict(parent, [v * 0.7 for v in parent])
        self.assertEqual(row["verdict"], "regression")

    def test_unequal_run_counts_are_missing(self):
        self.assertEqual(self.verdict([1.0, 2.0], [1.0])["verdict"],
                         "missing")


class HostProbe(unittest.TestCase):
    @staticmethod
    def probed(slowdowns, host_rates):
        return [{"metrics": {"ops_per_s": rate * slowdown},
                 "host_slowdown": slowdown, "ops_per_s_host": rate}
                for slowdown, rate in zip(slowdowns, host_rates)]

    def test_probe_figures_get_quartiles_and_wins_but_no_verdict(self):
        # The change's operation runs 10 % faster, but its probe reads a
        # faster host, so the scaled figure falls: the summary shows both.
        parent = self.probed([1.6] * 10, [100.0 + i for i in range(10)])
        change = self.probed([1.3] * 10, [110.0 + i for i in range(10)])
        rows = {row["metric"]: row for row in
                compare_bench.summarise_host_probe(parent, change)}
        self.assertEqual(set(rows), {"host_slowdown", "ops_per_s_host"})
        host = rows["ops_per_s_host"]
        self.assertEqual(host["parent"]["median"], 104.5)
        self.assertEqual(host["change"]["median"], 114.5)
        self.assertEqual((host["wins"], host["pairs"]), (10, 10))
        self.assertNotIn("verdict", host)
        slowdown = rows["host_slowdown"]
        self.assertEqual(slowdown["better"], "lower")
        self.assertEqual(slowdown["wins"], 10)  # lower slowdown "wins"
        self.assertAlmostEqual(slowdown["change_vs_parent"], -0.1875)
        scaled = compare_bench.summarise(OPS, parent, change)
        self.assertLess(scaled["change_vs_parent"], 0)

    def test_workloads_without_the_probe_get_no_rows(self):
        self.assertEqual(
            compare_bench.summarise_host_probe(runs([1.0] * 10),
                                               runs([1.0] * 10)), [])
        no_print = [{"metrics": {}, "host_slowdown": None,
                     "ops_per_s_host": None}] * 10
        self.assertEqual(
            compare_bench.summarise_host_probe(no_print, no_print), [])


class Arguments(unittest.TestCase):
    def main(self, *extra):
        return subprocess.run(
            [sys.executable, os.path.join(HERE, "compare_bench.py"),
             "--parent", REPO, "--change", REPO, *extra],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    def test_fewer_than_ten_pairs_are_refused(self):
        done = self.main("--pairs", "9")
        self.assertEqual(done.returncode, 2)
        self.assertIn("--pairs must be >= 10", done.stderr)

    def test_run_length_is_not_an_option(self):
        self.assertEqual(self.main("--seconds", "5").returncode, 2)

    def test_a_recorded_comparison_is_never_replaced(self):
        record = {"comparisons": [{"workload": "snapshot_replay", "seed": 1}]}
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "record.json")
            with open(path, "w") as f:
                json.dump(record, f)
            done = self.main("--workloads", "snapshot_replay", "--json", path)
            self.assertEqual(done.returncode, 2)
            self.assertIn("already holds seed 1", done.stderr)
            with open(path) as f:
                self.assertEqual(json.load(f), record)

    def test_new_comparisons_are_appended(self):
        with tempfile.TemporaryDirectory() as scratch:
            path = os.path.join(scratch, "record.json")
            old = {"workload": "snapshot_replay", "seed": 1}
            with open(path, "w") as f:
                json.dump({"comparisons": [old]}, f)
            new = {"workload": "snapshot_replay", "seed": 7919}
            compare_bench.write_json(path, {"rule": "r"}, [new])
            with open(path) as f:
                self.assertEqual(json.load(f),
                                 {"comparisons": [old, new], "rule": "r"})


if __name__ == "__main__":
    unittest.main()
