#!/usr/bin/env python3
"""Tests scripts/perf_ab.py on two fake checkouts whose riobench is a
script printing a fixed report."""

import os
import stat
import subprocess
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERF_AB = os.path.join(ROOT, "scripts", "perf_ab.py")

# Prints riobench's result line: wall_s is BASE_WALL + seed / 1000, and
# sim_cycles is seed * 1000 unless DIFF_SEED names the seed. Each call
# appends "<side> <seed>" to the log given in $FAKE_LOG.
FAKE_RIOBENCH = """#!/usr/bin/env python3
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open(os.environ["FAKE_LOG"], "a") as log:
    log.write("{side} %d\\n" % seed)
if {exit_code}:
    sys.exit({exit_code})
cycles = seed * 1000 + (1 if seed == {diff_seed} else 0)
print("fake report")
print(json.dumps({{"correct": True, "metrics": {{
    "wall_s": {{"value": {base_wall} + seed / 1000, "unit": "s"}},
    "sim_cycles": {{"value": cycles, "unit": "cycles"}}}}}}))
"""


class PerfAbTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.log = os.path.join(self.tmp.name, "calls.log")

    def tearDown(self):
        self.tmp.cleanup()

    def checkout(self, side, base_wall, diff_seed=-1, exit_code=0):
        build = os.path.join(self.tmp.name, side, ".bench_build")
        os.makedirs(build)
        path = os.path.join(build, "riobench")
        with open(path, "w") as f:
            f.write(FAKE_RIOBENCH.format(side=side, base_wall=base_wall,
                                         diff_seed=diff_seed,
                                         exit_code=exit_code))
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return os.path.join(self.tmp.name, side)

    def run_ab(self, parent, change, pairs=4, seed=7):
        proc = subprocess.run(
            [sys.executable, PERF_AB, parent, change, "--workload", "w",
             "--pairs", str(pairs), "--seconds", "1", "--seed", str(seed)],
            capture_output=True, text=True,
            env=dict(os.environ, FAKE_LOG=self.log))
        return proc.returncode, proc.stdout

    def calls(self):
        with open(self.log) as f:
            return f.read().split("\n")[:-1]

    def test_reports_medians_and_pairs_lower(self):
        code, out = self.run_ab(self.checkout("parent", 1.0),
                                self.checkout("change", 0.5))
        self.assertEqual(code, 0, out)
        wall = next(l for l in out.splitlines() if l.startswith("wall_s"))
        # Parent runs at seeds 7..10 read 1.007..1.010: median 1.0085,
        # quartiles 1.00775 and 1.00925; the change is 0.5 s lower.
        self.assertIn("1.0085", wall)
        self.assertIn("1.00775 - 1.00925", wall)
        self.assertIn("0.5085", wall)
        self.assertTrue(wall.endswith("4/4   0/4"), wall)
        cycles = next(l for l in out.splitlines()
                      if l.startswith("sim_cycles"))
        self.assertTrue(cycles.endswith("0/4   0/4"), cycles)

    def test_order_rotates_and_seeds_advance(self):
        self.run_ab(self.checkout("parent", 1.0), self.checkout("change", 1.0))
        self.assertEqual(self.calls(), [
            "parent 7", "change 7", "change 8", "parent 8",
            "parent 9", "change 9", "change 10", "parent 10"])

    def test_sim_cycles_difference_fails(self):
        code, out = self.run_ab(self.checkout("parent", 1.0),
                                self.checkout("change", 0.5, diff_seed=9))
        self.assertEqual(code, 1)
        self.assertIn("sim_cycles differs at seeds [9]", out)

    def test_failed_run_exits_2(self):
        code, _ = self.run_ab(self.checkout("parent", 1.0),
                              self.checkout("change", 0.5, exit_code=3))
        self.assertEqual(code, 2)

    def test_missing_binary_exits_2(self):
        code, _ = self.run_ab(self.checkout("parent", 1.0),
                              os.path.join(self.tmp.name, "nowhere"))
        self.assertEqual(code, 2)


if __name__ == "__main__":
    unittest.main()
