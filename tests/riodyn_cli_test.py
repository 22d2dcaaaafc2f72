#!/usr/bin/env python3
"""Tests riodyn's flag handling: numeric values parse strictly, -budget is
honoured in the default mode and under -native, and every other mode
refuses -budget and -metrics-interval instead of ignoring them. -native
exports metrics and flight records in the checked-in schema; the threaded
modes refuse metrics, flight records and cache images, and -native refuses
cache images.

Usage: riodyn_cli_test.py <path to riodyn>
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

RIODYN = None
SCRIPTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                       "scripts")

# Exits with code 7 after exactly three instructions.
EXIT7 = "main:\n  mov ebx, 7\n  mov eax, 1\n  int 0x80\n"


def riodyn(*args, cwd=None):
    """Runs riodyn with args; returns (exit code, stdout)."""
    proc = subprocess.run([RIODYN, *args], capture_output=True, text=True,
                          cwd=cwd, timeout=120)
    return proc.returncode, proc.stdout


class NumericFlagsTest(unittest.TestCase):
    def test_malformed_or_out_of_range_values_are_usage_errors(self):
        for flag, value in [("-budget", "abc"), ("-budget", "-5"),
                            ("-budget", "0"), ("-budget", ""),
                            ("-budget", " 5"), ("-budget", "+5"),
                            ("-budget", "18446744073709551616"),
                            ("-budget", "0x"),
                            ("-tenants", "2x"), ("-tenants", "0"),
                            ("-tenants", "1025"), ("-scale", "1.5"),
                            ("-scale", "-1"), ("-scale", "2147483648"),
                            ("-sample-interval", "0"),
                            ("-sample-interval", "1e3"),
                            ("-metrics-interval", "10k"),
                            ("-sideline-seed", "seed")]:
            # -scale has no "=" spelling.
            spellings = [[flag, value]] + (
                [] if flag == "-scale" else [[f"{flag}={value}"]])
            for args in spellings:
                with self.subTest(args=args):
                    code, out = riodyn(*args, "crafty")
                    self.assertEqual(code, 1, out)
                    self.assertIn(f"error: {flag} wants a whole number", out)
                    self.assertIn("usage: riodyn", out)

    def test_well_formed_values_are_accepted(self):
        for args in (["-budget", "100"], ["-budget=0x64"]):
            with self.subTest(args=args):
                code, out = riodyn(*args, "crafty")
                self.assertEqual(code, 124, out)
                self.assertIn("budget: exceeded 100 instructions (at 100)",
                              out)


class BudgetTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.exit7 = os.path.join(self.tmp.name, "exit7.s")
        with open(self.exit7, "w") as f:
            f.write(EXIT7)

    def tearDown(self):
        self.tmp.cleanup()

    def test_native_honours_the_budget_with_a_flight_record(self):
        code, out = riodyn("-native", "-budget", "10000", "-flight-record",
                           "fr.json", "crafty", cwd=self.tmp.name)
        self.assertEqual(code, 124, out)
        self.assertIn("budget: exceeded 10000 instructions (at 10000)", out)
        with open(os.path.join(self.tmp.name, "fr.json")) as f:
            self.assertEqual(json.load(f)["reason"], "budget_overrun")

    def test_native_run_that_ends_at_the_budget_exits_normally(self):
        code, out = riodyn("-native", "-budget", "3", self.exit7)
        self.assertEqual(code, 7, out)
        code, out = riodyn("-native", "-budget", "2", self.exit7)
        self.assertEqual(code, 124, out)

    def test_default_mode_honours_the_budget(self):
        code, out = riodyn("-budget", "10000", "crafty")
        self.assertEqual(code, 124, out)

    def test_other_modes_refuse_budget_and_metrics_interval(self):
        cases = [(["-threads"], "-budget", "-threads"),
                 (["-shared"], "-budget", "-shared"),
                 (["-sideline"], "-budget", "-sideline"),
                 (["-tenants", "2"], "-budget", "-tenants"),
                 (["-threads"], "-metrics-interval", "-threads"),
                 (["-sideline"], "-metrics-interval", "-sideline"),
                 (["-tenants", "2"], "-metrics-interval", "-tenants"),
                 (["-native"], "-metrics-interval", "-native")]
        for mode, flag, name in cases:
            with self.subTest(mode=mode, flag=flag):
                code, out = riodyn(*mode, flag, "100", "crafty")
                self.assertEqual(code, 1, out)
                self.assertIn(f"error: {flag} cannot be combined with {name}",
                              out)


def check_metrics(*args):
    """Runs scripts/check_metrics.py against the checked-in schema."""
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "check_metrics.py"),
         "--schema", os.path.join(SCRIPTS, "metrics_schema.json"), *args],
        capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout + proc.stderr


class ExportsAndCachesTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()

    def tearDown(self):
        self.tmp.cleanup()

    def path(self, name):
        return os.path.join(self.tmp.name, name)

    def test_native_flight_record_passes_the_schema(self):
        code, out = riodyn("-native", "-budget", "10000", "-flight-record",
                           "fr.json", "crafty", cwd=self.tmp.name)
        self.assertEqual(code, 124, out)
        code, out = check_metrics("--flight", self.path("fr.json"))
        self.assertEqual(code, 0, out)
        with open(self.path("fr.json")) as f:
            fleet = json.load(f)["snapshot"]["fleet"]
        self.assertEqual(fleet["instructions"]["value"], 10000)
        self.assertEqual(fleet["dispatches"]["value"], 0)

    def test_native_metrics_pass_the_schema(self):
        code, out = riodyn("-native", "-metrics", "m.prom", "crafty",
                           cwd=self.tmp.name)
        self.assertEqual(code, 0, out)
        self.assertNotIn("ignored", out)
        code, out = check_metrics(self.path("m.prom"), self.path("m.json"))
        self.assertEqual(code, 0, out)
        with open(self.path("m.json")) as f:
            fleet = json.load(f)["fleet"]
        self.assertGreater(fleet["cycles"]["value"], 0)
        self.assertEqual(fleet["dispatches"]["value"], 0)

    def test_threaded_modes_refuse_exports_and_caches(self):
        for mode in ("-threads", "-shared"):
            for flag in ("-metrics", "-flight-record", "-cache-load",
                         "-cache-save"):
                with self.subTest(mode=mode, flag=flag):
                    code, out = riodyn(mode, flag, "x", "crafty",
                                       cwd=self.tmp.name)
                    self.assertEqual(code, 1, out)
                    self.assertIn(
                        f"error: {flag} cannot be combined with {mode}", out)
                    self.assertEqual(os.listdir(self.tmp.name), [])

    def test_native_refuses_cache_images(self):
        for flag in ("-cache-load", "-cache-save"):
            with self.subTest(flag=flag):
                code, out = riodyn("-native", flag, "x", "crafty",
                                   cwd=self.tmp.name)
                self.assertEqual(code, 1, out)
                self.assertIn(f"error: {flag} cannot be combined with -native",
                              out)
                self.assertEqual(os.listdir(self.tmp.name), [])


if __name__ == "__main__":
    RIODYN = os.path.abspath(sys.argv.pop(1))
    unittest.main()
