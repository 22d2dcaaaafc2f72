#!/usr/bin/env python3
"""Compare two BENCH_*.json files produced by the bench binaries.

Three schemas are recognized by their fields:

  * throughput (bench_throughput): entries carry {"config", "instructions",
    "wall_ns", "mips"}. MIPS is wall-clock derived, so higher is better and
    runs on different hardware are only loosely comparable — the default is
    to warn on regressions and exit 0.

  * metrics (bench_observability): entries carry {"config", "cycles",
    "events", "samples", "snapshots", "snapshot_ns"}. The simulated cycle
    counts must be bit-identical across the off/idle/recording/metrics
    states AND across commits (the whole observability layer, metrics
    registry included, is host-side only), so cycles are compared with a
    zero threshold — any drift at all is a regression. Snapshot counts are
    exact too; snapshot_ns is host wall clock and only displayed.

  * observability (older bench_observability files): entries carry
    {"config", "cycles", "events", "samples"} without snapshot columns.
    Same zero-threshold cycle gate.

  * fork (bench_fork): entries carry {"config", "cycles", "cycles_warmup",
    "cow_pages", "unshares", ...}. Every forked tenant must replay the cold
    steady-state run bit-identically, so cycles (and the warm-up cycles,
    privatized page counts and unshare counts) are compared with a zero
    threshold; spawn time and RSS are host wall clock / allocator dependent
    and only displayed.

  * sideline (bench_sideline): entries carry {"config", "cycles",
    "published", ...}. The sideline schedule is seeded and the clock is
    simulated, so cycles and publication counts are bit-identical across
    runs and gated with a zero threshold; host_ns is wall clock and only
    displayed.

  * traceopt (bench_traceopt): entries carry {"config", "cycles", "guards",
    "published", "deopts", ...}. Same seeded-schedule reasoning: cycles,
    guard, publication, and deopt counts are exact and gated with a zero
    threshold; host_ns is only displayed.

  * simulated (bench_threads): entries carry {"config", "cycles", ...} plus
    deterministic byte/fragment counts. Lower cycles is better, and the
    numbers are exact (simulated clock), so any drift is a real behavior
    change worth reading; cache_bytes drift is reported alongside.

Configs are matched by name. Pass --fail-on-regress to turn a regression
beyond the threshold into a non-zero exit. A file whose entries match no
known schema, or whose entries are missing a key its schema requires, is
always a hard error (exit 2): silently misclassifying a benchmark file
would un-gate its invariants.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [--threshold PCT]
                   [--fail-on-regress]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    if not isinstance(data, list):
        raise ValueError(f"{path}: expected a JSON array")
    if not data:
        raise ValueError(f"{path}: empty benchmark array")
    if "mips" in data[0]:
        schema = "throughput"
        required = ("config", "instructions", "wall_ns", "mips")
    elif "snapshot_ns" in data[0]:
        # Must be probed before "events": metrics files carry both.
        schema = "metrics"
        required = ("config", "cycles", "events", "samples", "snapshots",
                    "snapshot_ns")
    elif "events" in data[0]:
        schema = "observability"
        required = ("config", "cycles", "events", "samples")
    elif "cow_pages" in data[0]:
        schema = "fork"
        required = ("config", "cycles", "cycles_warmup", "cow_pages",
                    "unshares")
    elif "image_bytes" in data[0]:
        schema = "persist"
        required = ("config", "cycles", "cycles_cold", "image_bytes")
    elif "guards" in data[0]:
        # Must be probed before "published": traceopt files carry both.
        schema = "traceopt"
        required = ("config", "cycles", "guards", "published", "deopts")
    elif "published" in data[0]:
        schema = "sideline"
        required = ("config", "cycles", "published")
    elif "cycles" in data[0]:
        schema = "simulated"
        required = ("config", "cycles")
    else:
        raise ValueError(
            f"{path}: unrecognized benchmark schema "
            f"(entry fields: {sorted(data[0])}); refusing to guess")
    out = {}
    for entry in data:
        for key in required:
            if key not in entry:
                raise ValueError(f"{path}: entry missing '{key}': {entry}")
        out[entry["config"]] = entry
    return schema, out


def compare(base, cur, metric, higher_is_better, threshold, extra=None):
    """Prints a per-config table; returns the list of regressions."""
    regressions = []
    header = f"{'config':<14} {'base ' + metric:>14} {'cur ' + metric:>14} " \
             f"{'delta':>9}"
    if extra:
        header += f" {extra + ' delta':>17}"
    print(header)
    for name in sorted(set(base) | set(cur)):
        if name not in base:
            print(f"{name:<14} {'-':>14} {cur[name][metric]:>14}   (new)")
            continue
        if name not in cur:
            print(f"{name:<14} {base[name][metric]:>14} {'-':>14}   (gone)")
            regressions.append(f"{name}: missing from current file")
            continue
        b, c = float(base[name][metric]), float(cur[name][metric])
        delta = (c - b) / b * 100.0 if b else 0.0
        line = f"{name:<14} {b:>14.2f} {c:>14.2f} {delta:>+8.1f}%"
        if extra and extra in base[name] and extra in cur[name]:
            line += f" {cur[name][extra] - base[name][extra]:>+17}"
        print(line)
        worse = -delta if higher_is_better else delta
        if worse > threshold:
            regressions.append(f"{name}: {b:.2f} -> {c:.2f} {metric} "
                               f"({delta:+.1f}%)")
    return regressions


def compare_exact(base, cur, metric):
    """Flags ANY difference in metric, improvements included (used for the
    observability schema, where the simulated clock may not move at all)."""
    diffs = []
    for name in sorted(set(base) & set(cur)):
        b, c = base[name][metric], cur[name][metric]
        if b != c:
            diffs.append(f"{name}: {metric} changed {b} -> {c} "
                         f"(must be bit-identical)")
    return diffs


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--fail-on-regress", action="store_true",
                    help="exit 1 if any config regresses past the threshold")
    args = ap.parse_args()

    try:
        base_schema, base = load(args.baseline)
        cur_schema, cur = load(args.current)
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if base_schema != cur_schema:
        print(f"schema mismatch: {args.baseline} is {base_schema}, "
              f"{args.current} is {cur_schema}")
        return 1

    if base_schema == "throughput":
        regressions = compare(base, cur, "mips", higher_is_better=True,
                              threshold=args.threshold)
    elif base_schema == "metrics":
        # Same host-side-only invariant as observability, now covering the
        # metrics registry's snapshot driver too; snapshot counts come from
        # the deterministic runFor slicing, so they are exact as well.
        # snapshot_ns is host wall clock, displayed but never gated.
        regressions = compare(base, cur, "cycles", higher_is_better=False,
                              threshold=0.0, extra="snapshot_ns")
        regressions += compare_exact(base, cur, "cycles")
        regressions += compare_exact(base, cur, "snapshots")
    elif base_schema == "observability":
        # Host-side-only invariant: cycles must not move at all, in either
        # direction. A "speedup" here is just as much a bug as a slowdown.
        regressions = compare(base, cur, "cycles", higher_is_better=False,
                              threshold=0.0, extra="events")
        regressions += compare_exact(base, cur, "cycles")
    elif base_schema == "fork":
        # Per-tenant simulated cycles are exact: every tenant must replay
        # the cold steady-state run bit-identically, so any drift at all —
        # either direction — is a behavior change. The same goes for the
        # pages a tenant privatizes and for cache unshares (0 from a
        # steady-state template). Spawn/cold wall clock and RSS are
        # host-side; shown in the table, never gated.
        regressions = compare(base, cur, "cycles", higher_is_better=False,
                              threshold=0.0, extra="cow_pages")
        regressions += compare_exact(base, cur, "cycles")
        regressions += compare_exact(base, cur, "cycles_warmup")
        regressions += compare_exact(base, cur, "unshares")
        print()
        compare(base, cur, "rss_per_tenant_kb", higher_is_better=False,
                threshold=float("inf"), extra="spawn_ns")
    elif base_schema == "traceopt":
        # Simulated cycles, guard, publication, and deopt counts are all
        # exact on the seeded schedule: gate them with a zero threshold.
        # The binary already asserts the >=10% aggregate reduction and
        # deopts == 0; the baseline diff catches everything subtler.
        # host_ns is wall clock, displayed but never gated.
        regressions = compare(base, cur, "cycles", higher_is_better=False,
                              threshold=0.0, extra="guards")
        regressions += compare_exact(base, cur, "cycles")
        regressions += compare_exact(base, cur, "guards")
        regressions += compare_exact(base, cur, "published")
        regressions += compare_exact(base, cur, "deopts")
        print()
        compare(base, cur, "host_ns", higher_is_better=False,
                threshold=float("inf"))
    elif base_schema == "sideline":
        # Seeded virtual-completion schedule on a simulated clock: cycle
        # counts and publication counts must be bit-identical across
        # commits; any drift is a cost-model or scheduling change worth
        # reading. host_ns is wall clock, displayed but never gated.
        regressions = compare(base, cur, "cycles", higher_is_better=False,
                              threshold=0.0, extra="published")
        regressions += compare_exact(base, cur, "cycles")
        regressions += compare_exact(base, cur, "published")
        print()
        compare(base, cur, "host_ns", higher_is_better=False,
                threshold=float("inf"))
    elif base_schema == "persist":
        # Simulated cycles (warm and cold) are exact and deterministic:
        # gate them hard. Image size is reported alongside; save_ns/load_ns
        # are host wall clock and deliberately not compared.
        regressions = compare(base, cur, "cycles", higher_is_better=False,
                              threshold=args.threshold, extra="image_bytes")
        regressions += compare(base, cur, "cycles_cold",
                               higher_is_better=False,
                               threshold=args.threshold)
    else:
        regressions = compare(base, cur, "cycles", higher_is_better=False,
                              threshold=args.threshold, extra="cache_bytes")

    if regressions:
        if base_schema in ("metrics", "observability", "fork", "sideline",
                           "traceopt"):
            print("\nWARNING: simulated cycles drifted (must be "
                  "bit-identical):")
        else:
            print(f"\nWARNING: regression beyond {args.threshold:.0f}%:")
        for r in regressions:
            print(f"  {r}")
        if args.fail_on_regress:
            return 1
    else:
        print("\nno regressions beyond threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
