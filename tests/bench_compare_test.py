#!/usr/bin/env python3
"""Tests the bench gate itself: scripts/bench_compare.py run on every
checked-in baseline (bench/*.baseline.json) and on mutated copies of it."""

import glob
import json
import os
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COMPARE = os.path.join(ROOT, "scripts", "bench_compare.py")
BASELINES = sorted(glob.glob(os.path.join(ROOT, "bench", "*.baseline.json")))


def first_field(fields):
    return sorted(fields)[0]


class BenchCompareTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def run_compare(self, baseline, rows):
        """Runs the gate on baseline vs rows; returns (exit code, stdout)."""
        current = os.path.join(self.tmp.name, "current.json")
        with open(current, "w") as f:
            json.dump(rows, f)
        proc = subprocess.run([sys.executable, COMPARE, baseline, current],
                              capture_output=True, text=True)
        return proc.returncode, proc.stdout

    def baselines(self):
        for path in BASELINES:
            with open(path) as f:
                yield path, json.load(f)

    def test_every_paper_number_has_a_baseline(self):
        names = {os.path.basename(p) for p in BASELINES}
        self.assertIn("BENCH_table1.baseline.json", names)
        self.assertIn("BENCH_table2.baseline.json", names)
        self.assertIn("BENCH_figure5.baseline.json", names)

    def test_baseline_against_itself_passes(self):
        for path, rows in self.baselines():
            with self.subTest(path=path):
                self.assertEqual(self.run_compare(path, rows)[0], 0)

    def test_exact_field_plus_one_fails(self):
        for path, rows in self.baselines():
            with self.subTest(path=path):
                rows[0]["exact"][first_field(rows[0]["exact"])] += 1
                self.assertEqual(self.run_compare(path, rows)[0], 1)

    def test_exact_field_removed_fails(self):
        for path, rows in self.baselines():
            with self.subTest(path=path):
                del rows[-1]["exact"][first_field(rows[-1]["exact"])]
                self.assertEqual(self.run_compare(path, rows)[0], 1)

    def test_row_removed_fails(self):
        for path, rows in self.baselines():
            with self.subTest(path=path):
                self.assertEqual(self.run_compare(path, rows[1:])[0], 1)

    def test_host_field_plus_half_only_warns(self):
        tested = 0
        for path, rows in self.baselines():
            row = next((r for r in rows if any(r["host"].values())), None)
            if row is None:
                continue
            with self.subTest(path=path):
                field = next(k for k, v in sorted(row["host"].items()) if v)
                row["host"][field] *= 1.5
                code, out = self.run_compare(path, rows)
                self.assertEqual(code, 0)
                self.assertIn("WARNING", out)
                tested += 1
        self.assertGreater(tested, 0)

    def test_old_format_row_is_malformed(self):
        for path, rows in self.baselines():
            with self.subTest(path=path):
                row = rows[0]
                rows[0] = {"config": row["config"], **row["exact"],
                           **row["host"]}
                self.assertEqual(self.run_compare(path, rows)[0], 2)

    def test_unknown_top_level_key_is_malformed(self):
        for path, rows in self.baselines():
            with self.subTest(path=path):
                rows[0]["ledger"] = {}
                self.assertEqual(self.run_compare(path, rows)[0], 2)


if __name__ == "__main__":
    unittest.main()
