#!/usr/bin/env python3
"""Compare fresh bench JSON files against their committed baselines.

Usage:
    bench/compare_bench.py BASELINE CURRENT [BASELINE2 CURRENT2]
                           [--threshold PCT]

Diffs the median ms/frame of every (family, config) row.  Families are
discovered dynamically: any top-level key whose value is a list of row
objects carrying "name" and "ms_per_frame" participates, so the same gate
covers BENCH_executor.json (stentboost_graph) and BENCH_serve.json
(serve_fleet) without a hardcoded schema.

A second BASELINE2 CURRENT2 pair compares a second file family in the same
invocation (one CI step gates both executor and serving benches); the exit
code is the worst of the pairs.

A row whose ms/frame regressed by more than --threshold percent (default
15) produces a GitHub Actions `::warning::` annotation; so do rows that
appear in only one of the two files.  The script is warn-only — it ALWAYS
exits 0 — because shared CI runners are far too noisy for a hard latency
gate; the warnings put the trend in front of the reviewer without blocking
the merge.

Baselines live in bench/baselines/ and are refreshed deliberately (run the
bench at CI's configuration on a quiet machine with at least 4 cores,
eyeball the diff, commit); BENCH_executor.json is recorded with
`bench_executor --frames 24 --size 1024 --workers 4 --reps 5`.

With --require-same-host the host_cores check becomes a hard gate: a
mismatch exits 3 instead of warning, for local baseline refreshes where a
silent cross-machine comparison would poison the committed numbers.

The "telemetry_overhead" family (bench_serve --telemetry) carries an extra
within-run gate: each row's overhead_pct compares the same fleet served
with and without a 1 Hz scraper in ONE run, so it is meaningful even on a
noisy host.  Overhead beyond --telemetry-warn-pct (default 1) warns;
beyond --telemetry-fail-pct (default 5) it exits 4, but only when the
current run's host_cores matches the baseline's (same-host runs are the
only ones whose absolute numbers we trust enough to block on).
"""

import argparse
import json
import sys


def discover_families(doc):
    """Top-level keys holding a list of {"name", "ms_per_frame"} rows."""
    families = []
    for key, value in doc.items():
        if not isinstance(value, list):
            continue
        if value and not all(
                isinstance(row, dict) and "name" in row
                and "ms_per_frame" in row for row in value):
            continue
        families.append(key)
    return families


def load_rows(path):
    """-> {(family, name): ms_per_frame}, plus the raw document."""
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    rows = {}
    for family in discover_families(doc):
        for row in doc.get(family, []):
            rows[(family, row["name"])] = float(row["ms_per_frame"])
    return rows, doc


def check_telemetry_overhead(doc, path, same_host, args):
    """Within-run scrape-overhead gate -> exit code (0 or 4)."""
    worst = 0
    for row in doc.get("telemetry_overhead", []):
        if not isinstance(row, dict) or "overhead_pct" not in row:
            continue
        name = row.get("name", "?")
        overhead = float(row["overhead_pct"])
        scrapes = row.get("scrapes", "?")
        if overhead > args.telemetry_fail_pct and same_host:
            print(f"telemetry overhead gate: {path} {name} scrape overhead "
                  f"{overhead:+.2f}% exceeds {args.telemetry_fail_pct:.0f}% "
                  f"({scrapes} scrapes); failing", file=sys.stderr)
            worst = 4
        elif overhead > args.telemetry_warn_pct:
            print(f"::warning::telemetry overhead: {name} "
                  f"{overhead:+.2f}% above the "
                  f"{args.telemetry_warn_pct:.0f}% target "
                  f"({scrapes} scrapes)")
        else:
            print(f"telemetry overhead: {name} {overhead:+.2f}% "
                  f"(target <{args.telemetry_warn_pct:.0f}%, "
                  f"{scrapes} scrapes)")
    return worst


def compare_pair(baseline, current, args):
    try:
        base_rows, base_doc = load_rows(baseline)
    except (OSError, ValueError, KeyError) as e:
        print(f"::warning::bench compare: cannot read baseline "
              f"{baseline}: {e}")
        return 0
    try:
        cur_rows, cur_doc = load_rows(current)
    except (OSError, ValueError, KeyError) as e:
        print(f"::warning::bench compare: cannot read current "
              f"{current}: {e}")
        return 0

    # A core-count mismatch is not noise: every parallel row's ms/frame
    # scales with the host cores the run actually had, so any diff would be
    # pure machine skew.  Refuse the comparison outright (still exit 0 —
    # the gate stays warn-only) instead of emitting misleading deltas.
    base_cores = base_doc.get("host_cores")
    cur_cores = cur_doc.get("host_cores")

    # The telemetry-overhead gate is within-run (scraper vs no scraper in
    # the SAME current document), so it runs before — and regardless of —
    # the cross-machine comparability bail-out below.
    telemetry_rc = check_telemetry_overhead(
        cur_doc, current, same_host=(base_cores == cur_cores), args=args)

    if base_cores != cur_cores:
        if args.require_same_host:
            print(f"bench compare: host_cores differs "
                  f"(baseline={base_cores} current={cur_cores}) and "
                  f"--require-same-host is set; refusing comparison",
                  file=sys.stderr)
            return 3
        print(f"::warning::bench compare: host_cores differs "
              f"(baseline={base_cores} current={cur_cores}); skipping "
              f"comparison — rerun the baseline on this machine or refresh "
              f"bench/baselines/")
        return telemetry_rc

    for key in ("frames", "size", "workers"):
        if base_doc.get(key) != cur_doc.get(key):
            print(f"::warning::bench compare: {key} differs "
                  f"(baseline={base_doc.get(key)} current={cur_doc.get(key)});"
                  f" ms/frame numbers are not directly comparable")

    print(f"{'family/config':<44} {'base':>9} {'now':>9} {'delta':>8}")
    regressions = 0
    for (family, name), base_ms in sorted(base_rows.items()):
        label = f"{family}/{name}"
        if (family, name) not in cur_rows:
            print(f"::warning::bench compare: {label} missing from current "
                  f"results")
            continue
        cur_ms = cur_rows[(family, name)]
        delta_pct = (cur_ms - base_ms) / base_ms * 100.0 if base_ms > 0 else 0.0
        print(f"{label:<44} {base_ms:>8.2f}ms {cur_ms:>7.2f}ms "
              f"{delta_pct:>+7.1f}%")
        if delta_pct > args.threshold:
            regressions += 1
            print(f"::warning::bench regression: {label} median ms/frame "
                  f"{base_ms:.2f} -> {cur_ms:.2f} ({delta_pct:+.1f}%, "
                  f"threshold {args.threshold:.0f}%)")
    for (family, name) in sorted(set(cur_rows) - set(base_rows)):
        print(f"::warning::bench compare: {family}/{name} has no baseline "
              f"row (new config? refresh bench/baselines/)")

    if regressions == 0:
        print("bench compare: no median regression beyond "
              f"{args.threshold:.0f}%")
    else:
        print(f"bench compare: {regressions} row(s) regressed beyond "
              f"{args.threshold:.0f}% (warn-only)")
    return telemetry_rc


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", metavar="FILE",
                        help="BASELINE CURRENT [BASELINE2 CURRENT2]")
    parser.add_argument("--threshold", type=float, default=15.0,
                        help="regression warning threshold in percent")
    parser.add_argument("--require-same-host", action="store_true",
                        help="exit 3 (instead of warning) when host_cores "
                             "differs between baseline and current")
    parser.add_argument("--telemetry-warn-pct", type=float, default=1.0,
                        help="warn when scrape-under-load overhead exceeds "
                             "this percent")
    parser.add_argument("--telemetry-fail-pct", type=float, default=5.0,
                        help="exit 4 when scrape-under-load overhead exceeds "
                             "this percent on a same-host comparison")
    args = parser.parse_args()

    if len(args.files) % 2 != 0 or not 2 <= len(args.files) <= 4:
        parser.error("expected BASELINE CURRENT or "
                     "BASELINE CURRENT BASELINE2 CURRENT2")

    worst = 0
    for i in range(0, len(args.files), 2):
        if i > 0:
            print()
        worst = max(worst, compare_pair(args.files[i], args.files[i + 1],
                                        args))
    return worst


if __name__ == "__main__":
    sys.exit(main())
