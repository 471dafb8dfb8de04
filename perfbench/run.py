#!/usr/bin/env python3
"""Builds and runs the host-clock benchmark of the DiVE pipeline.

    python3 perfbench/run.py --workload <name> [--seed <n>] --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later calls rebuild
incrementally. The binary prints one line per metric and a JSON result;
this script checks the run's deterministic outputs against every earlier
run of the same workload, seed and binary (kept under the build
directory), then prints the result as its last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the benchmark could not be built or run (no result is printed then).
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
# Default seed of each workload: its dataset preset's (data/dataset.h,
# harness/serve_scenario.h).
DEFAULT_SEEDS = {"robotcar_t1": 4051, "nuscenes_outage_t2": 2025,
                 "serve24_roi": 99}
# A run ends within 180 s, an incremental build included; the first run
# in a checkout builds from scratch and may take 900 s.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_root():
    base = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return base if base.is_absolute() else ROOT / base


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no product sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_LIMIT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    exe = build_dir / "perfbench"
    if not exe.is_file():
        fail(f"build produced no {exe}")
    return exe


def check_repeatable(store, deterministic):
    """Deterministic outputs must equal those of every earlier run of the
    same workload, seed and binary, traced or not. Returns the differing
    keys."""
    if store.is_file():
        earlier = json.loads(store.read_text())
        return sorted(k for k in set(earlier) | set(deterministic)
                      if earlier.get(k) != deterministic.get(k))
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(deterministic, sort_keys=True))
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=DEFAULT_SEEDS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    start = time.monotonic()
    build_dir = build_root() / "perfbench"
    exe = build(build_dir)
    budget = max(120.0, RUN_LIMIT_S - (time.monotonic() - start))
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=budget, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {budget:.0f} s")
    lines = done.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"benchmark exited {done.returncode} without a result")
    for line in lines[:-1]:
        print(line)

    # Keyed by the binary too: a rebuilt program may change its outputs.
    binary = hashlib.sha256(exe.read_bytes()).hexdigest()[:16]
    store = build_root() / "perfbench-outputs" / (
        f"{args.workload}-{args.seed}-{binary}.json")
    differing = check_repeatable(store, result["deterministic"])
    correct = bool(result["correct"]) and not differing
    failed = result["failed"]
    if differing:
        print("CHECK FAILED: deterministic outputs differ from an earlier "
              f"run of this seed: {', '.join(differing)}")
        failed = result["attempted"]
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": failed, "metrics": result["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
