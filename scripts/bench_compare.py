#!/usr/bin/env python3
"""Compare a bench result file against its checked-in baseline.

Usage: bench_compare.py BASELINE.json CURRENT.json

Both files hold the one row format every bench writes (bench/BenchJson.h):

    [{"config": str, "exact": {name: int}, "host": {name: number}}, ...]

"exact" fields are simulated cycles and deterministic counts: any difference,
in either direction, fails. "host" fields are wall-clock ns and RSS KB, all
lower-is-better; they depend on the machine, so a rise past HOST_WARN only
warns. Both files must carry the same configs and the same field names.

Exit status: 0 clean (host warnings allowed), 1 on exact drift or a row or
field present on one side only, 2 on malformed input.
"""

import json
import sys

HOST_WARN = 0.25


class Malformed(Exception):
    pass


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value):
    return is_int(value) or isinstance(value, float)


def load(path):
    """Returns {config: row}, or raises Malformed."""
    try:
        with open(path) as f:
            rows = json.load(f)
    except (OSError, ValueError) as e:
        raise Malformed(f"{path}: {e}")
    if not isinstance(rows, list) or not rows:
        raise Malformed(f"{path}: expected a non-empty JSON array of rows")
    out = {}
    for row in rows:
        if not isinstance(row, dict) or set(row) != {"config", "exact", "host"}:
            raise Malformed(f"{path}: not a {{config, exact, host}} row: {row}")
        name = row["config"]
        if not isinstance(name, str) or name in out:
            raise Malformed(f"{path}: bad or duplicate config {name!r}")
        for kind, ok in (("exact", is_int), ("host", is_number)):
            fields = row[kind]
            valid = isinstance(fields, dict) and all(map(ok, fields.values()))
            if not valid:
                raise Malformed(f"{path}: {name}: bad {kind} fields {fields}")
        out[name] = row
    return out


def compare(base, cur):
    """Returns (failures, warnings), each a list of message lines."""
    failures, warnings = [], []
    for name in sorted(set(base) ^ set(cur)):
        side = "current" if name in base else "baseline"
        failures.append(f"{name}: row missing from {side}")
    for name in sorted(set(base) & set(cur)):
        for kind in ("exact", "host"):
            b, c = base[name][kind], cur[name][kind]
            for field in sorted(set(b) ^ set(c)):
                side = "current" if field in b else "baseline"
                failures.append(f"{name}: {kind} {field} missing from {side}")
            for field in sorted(set(b) & set(c)):
                old, new = b[field], c[field]
                if kind == "exact" and old != new:
                    failures.append(f"{name}: {field} {old} -> {new} "
                                    f"({new - old:+d}; must be identical)")
                elif kind == "host" and new > old * (1 + HOST_WARN):
                    rise = f"+{(new / old - 1) * 100:.0f}%" if old else "from 0"
                    warnings.append(f"{name}: {field} {old} -> {new} ({rise})")
    return failures, warnings


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        base, cur = load(argv[1]), load(argv[2])
    except Malformed as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    failures, warnings = compare(base, cur)
    for line in warnings:
        print(f"WARNING (host, over {HOST_WARN:.0%}): {line}")
    for line in failures:
        print(f"FAIL: {line}")
    exact = sum(len(row["exact"]) for row in base.values())
    print(f"{argv[2]}: {len(base)} rows, {exact} exact fields: "
          f"{len(failures)} failures, {len(warnings)} host warnings")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
