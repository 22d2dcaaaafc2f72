#!/usr/bin/env python3
"""Tests riodyn's flag handling: numeric values parse strictly, and every
(mode, flag) pair is either honoured or refused with exit 1 before the run,
never silently ignored. -budget is honoured in the default mode and under
-native, and -native exports metrics and flight records in the checked-in
schema.

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


# The first mode flag given, in this order, picks the mode; with none the
# program runs under one runtime ("default").
MODE_ORDER = ["-native", "-shared", "-threads", "-sideline", "-tenants"]
MODES = MODE_ORDER + ["default"]
ONE_RUNTIME = {"-sideline", "-tenants", "default"}
ANY_RUNTIME = ONE_RUNTIME | {"-shared", "-threads"}

# Every mode-dependent flag, in riodyn's rule order: how to give it, the
# modes that honour it, the flag it needs beside it, and what a run that
# honours it prints (None: nothing to see beyond exit code 0).
FLAGS = [
    ("-native", ["-native"], {"-native"}, None, None),
    ("-shared", ["-shared"], {"-shared"}, None, None),
    ("-threads", ["-threads"], {"-shared", "-threads"}, None, None),
    ("-sideline", ["-sideline"], {"-sideline"}, None, None),
    ("-sideline-seed", ["-sideline-seed", "7"], {"-sideline"}, "-sideline",
     None),
    ("-tenants", ["-tenants", "2"], {"-tenants"}, None,
     "tenants: template frozen"),
    ("-config", ["-config", "linkdirect"], ANY_RUNTIME, None, None),
    ("-client", ["-client", "inscount"], ANY_RUNTIME - {"-tenants"}, None,
     None),
    ("-traceopt", ["-traceopt"], ANY_RUNTIME, None, None),
    ("-ib-inline", ["-ib-inline"], ANY_RUNTIME, None, None),
    ("-stats", ["-stats"], ONE_RUNTIME, None, "runtime statistics:"),
    ("-disas", ["-disas", "main"], ONE_RUNTIME, None, "fragment for"),
    ("-cache-load", ["-cache-load", "missing.riocache"], ONE_RUNTIME, None,
     "cache: "),
    ("-cache-save", ["-cache-save", "saved.riocache"],
     {"-sideline", "default"}, None, "cache: "),
    ("-trace", ["-trace", "t.json"], ANY_RUNTIME, None, "trace: "),
    ("-profile", ["-profile"], ANY_RUNTIME, None, "cycle-sampled profile"),
    ("-sample-interval", ["-sample-interval", "500"], ANY_RUNTIME,
     "-profile", "interval 500 cycles"),
    ("-metrics", ["-metrics", "m.prom"], ONE_RUNTIME | {"-native"}, None,
     "metrics: snapshot"),
    ("-flight-record", ["-flight-record", "fr.json"],
     ONE_RUNTIME | {"-native"}, None, None),
    ("-metrics-interval", ["-metrics-interval", "100000"], {"default"},
     "-metrics", "metrics: snapshot"),
    ("-budget", ["-budget", "10000"], {"-native", "default"}, None,
     "budget: exceeded 10000"),
]
RULES = {flag: (args, modes, needs) for flag, args, modes, needs, _ in FLAGS}


def refusal(given):
    """The error riodyn must print for these flags, or None to run."""
    mode = next((m for m in MODE_ORDER if m in given), "default")
    for flag, (_, modes, needs) in RULES.items():
        if flag not in given:
            continue
        if mode not in modes and mode != "default":
            return f"error: {flag} cannot be combined with {mode}"
        if mode not in modes or (needs and needs not in given):
            return f"error: {flag} needs {needs}"
    return None


class ModeFlagMatrixTest(unittest.TestCase):
    def test_every_mode_flag_pair_is_honoured_or_refused(self):
        for mode in MODES:
            for flag, args, _, needs, evidence in FLAGS:
                if flag == mode:
                    continue
                given = {flag} | ({mode} if mode != "default" else set())
                argv = list(args)
                if mode != "default":
                    argv = RULES[mode][0] + argv
                # Also give the flag a needed non-mode flag, so the pair
                # itself decides.
                if needs and needs not in MODE_ORDER:
                    given.add(needs)
                    argv = RULES[needs][0] + argv
                expected = refusal(given)
                with self.subTest(mode=mode, flag=flag), \
                        tempfile.TemporaryDirectory() as tmp:
                    code, out = riodyn(*argv, "crafty", cwd=tmp)
                    if expected:
                        self.assertEqual(code, 1, out)
                        self.assertIn(expected, out)
                        self.assertIn("usage: riodyn", out)
                        self.assertEqual(os.listdir(tmp), [])
                        continue
                    budget = "-budget" in given
                    self.assertEqual(code, 124 if budget else 0, out)
                    self.assertNotIn("error:", out)
                    if evidence:
                        self.assertIn(evidence, out)

    def test_a_flag_that_needs_another_is_refused_alone(self):
        for flag, needs in [("-sideline-seed", "-sideline"),
                            ("-sample-interval", "-profile"),
                            ("-metrics-interval", "-metrics")]:
            with self.subTest(flag=flag):
                code, out = riodyn(*RULES[flag][0], "crafty")
                self.assertEqual(code, 1, out)
                self.assertIn(f"error: {flag} needs {needs}", out)


class FileTargetTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.exit7 = os.path.join(self.tmp.name, "exit7.s")
        with open(self.exit7, "w") as f:
            f.write(EXIT7)

    def tearDown(self):
        self.tmp.cleanup()

    def test_workload_flags_are_refused(self):
        for args in (["-scale", "3"], ["-dump-asm"]):
            with self.subTest(args=args):
                code, out = riodyn(*args, self.exit7)
                self.assertEqual(code, 1, out)
                self.assertIn(f"error: {args[0]} applies to workloads", out)


if __name__ == "__main__":
    RIODYN = os.path.abspath(sys.argv.pop(1))
    unittest.main()
