#!/usr/bin/env python3
"""Diff fresh BENCH_*.json records against checked-in baselines.

Usage:
    check_bench_baseline.py BASELINE FRESH [--tolerance X]
    check_bench_baseline.py --baseline-dir DIR --fresh-dir DIR [--tolerance X]

Pair mode compares one baseline file against one fresh record. Directory
mode compares EVERY BENCH_*.json in the baseline directory against the
same-named file in the fresh directory — checking in a new baseline is
enough to put it under CI; forgetting to emit it becomes a hard failure.
Fresh records with no baseline are listed but ignored (benches graduate
to pinned status by getting a baseline checked in).

Each baseline pins the metric SET exactly (a renamed or dropped metric is
a hard failure — the record is an interface) and the VALUES loosely:
CI runners differ wildly in clock speed, so only order-of-magnitude
regressions should fail the build.

Per-unit direction:
  time-like units (ns/call, ms/frame, ...): fresh <= baseline * tolerance
  ratio units ("x", speedups):              fresh >= baseline / tolerance
Other units are checked for presence only.
"""

import argparse
import glob
import json
import os
import sys

TIME_UNITS = {"ns", "ns/call", "us", "ms", "ms/frame", "s"}
RATIO_UNITS = {"x"}


def load_records(path):
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != 1:
        sys.exit(f"{path}: unknown schema {doc.get('schema')!r}")
    return {rec["metric"]: rec for rec in doc["records"]}


def check_pair(baseline_path, fresh_path, tolerance):
    """Compare one baseline/fresh file pair; return a list of failures."""
    base = load_records(baseline_path)
    fresh = load_records(fresh_path)
    label = os.path.basename(baseline_path)

    failures = []
    for name, brec in sorted(base.items()):
        frec = fresh.get(name)
        if frec is None:
            failures.append(f"{label}: {name}: missing from fresh record")
            continue
        if frec["unit"] != brec["unit"]:
            failures.append(
                f"{label}: {name}: unit changed "
                f"{brec['unit']!r} -> {frec['unit']!r}"
            )
            continue
        bval, fval, unit = brec["value"], frec["value"], brec["unit"]
        if unit in TIME_UNITS and bval > 0:
            limit = bval * tolerance
            verdict = "OK" if fval <= limit else "REGRESSED"
            print(f"{name}: {fval:.4g} {unit} (baseline {bval:.4g}, "
                  f"limit {limit:.4g}) {verdict}")
            if fval > limit:
                failures.append(
                    f"{label}: {name}: {fval:.4g} {unit} exceeds "
                    f"{tolerance}x baseline {bval:.4g}"
                )
        elif unit in RATIO_UNITS and bval > 0:
            floor = bval / tolerance
            verdict = "OK" if fval >= floor else "REGRESSED"
            print(f"{name}: {fval:.4g}{unit} (baseline {bval:.4g}, "
                  f"floor {floor:.4g}) {verdict}")
            if fval < floor:
                failures.append(
                    f"{label}: {name}: {fval:.4g}{unit} below baseline "
                    f"{bval:.4g}/{tolerance}"
                )
        else:
            print(f"{name}: present ({fval:.4g} {unit}), value not compared")

    for name in sorted(set(fresh) - set(base)):
        print(f"{name}: new metric (not in baseline), ignored")

    return failures, len(base)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("baseline", nargs="?")
    ap.add_argument("fresh", nargs="?")
    ap.add_argument("--baseline-dir", help="directory of checked-in baselines")
    ap.add_argument("--fresh-dir", help="directory of freshly emitted records")
    ap.add_argument(
        "--tolerance",
        type=float,
        default=4.0,
        help="allowed slowdown/shrink factor before failing (default 4x, "
        "deliberately generous: shared CI runners are noisy)",
    )
    args = ap.parse_args()

    dir_mode = args.baseline_dir is not None or args.fresh_dir is not None
    if dir_mode:
        if not (args.baseline_dir and args.fresh_dir):
            ap.error("--baseline-dir and --fresh-dir must be given together")
        if args.baseline or args.fresh:
            ap.error("positional BASELINE/FRESH conflict with directory mode")
        pairs = []
        baselines = sorted(
            glob.glob(os.path.join(args.baseline_dir, "BENCH_*.json")))
        if not baselines:
            sys.exit(f"{args.baseline_dir}: no BENCH_*.json baselines found")
        for bpath in baselines:
            pairs.append((bpath, os.path.join(args.fresh_dir,
                                              os.path.basename(bpath))))
        pinned = {os.path.basename(b) for b, _ in pairs}
        for fpath in sorted(
                glob.glob(os.path.join(args.fresh_dir, "BENCH_*.json"))):
            if os.path.basename(fpath) not in pinned:
                print(f"{os.path.basename(fpath)}: no baseline, not checked")
    else:
        if not (args.baseline and args.fresh):
            ap.error("need BASELINE FRESH or --baseline-dir/--fresh-dir")
        for path in (args.baseline, args.fresh):
            if os.path.isdir(path):
                ap.error(f"{path} is a directory; compare directories with "
                         "--baseline-dir/--fresh-dir")
        pairs = [(args.baseline, args.fresh)]

    failures = []
    metrics = 0
    for bpath, fpath in pairs:
        print(f"== {os.path.basename(bpath)} ==")
        if not os.path.exists(fpath):
            failures.append(
                f"{os.path.basename(bpath)}: fresh record {fpath} not emitted")
            continue
        pair_failures, pair_metrics = check_pair(bpath, fpath, args.tolerance)
        failures.extend(pair_failures)
        metrics += pair_metrics

    if failures:
        print("\nbench baseline check FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"\nbench baseline check OK "
          f"({metrics} metrics across {len(pairs)} records)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
