#!/usr/bin/env python3
"""Unit test of tools/check_bench_baseline.py — the gate that pins bench
records in CI. The gate itself was untested; a bug here would silently
wave regressions through (or hard-fail every PR), so it gets the same
treatment as any parser: missing-file, metric-set, unit, and
tolerance-edge cases. Runs as ctest 'lint/check_bench_baseline'.
"""

import atexit
import json
import os
import shutil
import subprocess
import sys
import tempfile

CHECKER = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "check_bench_baseline.py"
)

PASSED = 0


def record(name, metrics):
    return {
        "bench": name,
        "schema": 1,
        "git_rev": "test",
        "records": [
            {"metric": m, "value": v, "unit": u} for m, v, u in metrics
        ],
    }


def write(path, doc):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f)


def run_checker(*args):
    return subprocess.run(
        [sys.executable, CHECKER, *args], capture_output=True, text=True
    )


def expect(name, returncode, proc, needle=None):
    global PASSED
    if proc.returncode != returncode:
        sys.exit(
            f"FAIL {name}: expected exit {returncode}, got "
            f"{proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    if needle is not None and needle not in proc.stdout + proc.stderr:
        sys.exit(
            f"FAIL {name}: expected {needle!r} in output\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    print(f"ok: {name}")
    PASSED += 1


def fresh_dirs():
    root = tempfile.mkdtemp(prefix="bench_gate_test_")
    atexit.register(shutil.rmtree, root)
    return os.path.join(root, "baselines"), os.path.join(root, "fresh")


# --- pair mode: identical records pass ---
bdir, fdir = fresh_dirs()
base = os.path.join(bdir, "BENCH_x.json")
fresh = os.path.join(fdir, "BENCH_x.json")
write(base, record("x", [("encode", 100.0, "ms"), ("speedup", 4.0, "x")]))
write(fresh, record("x", [("encode", 100.0, "ms"), ("speedup", 4.0, "x")]))
expect("identical records pass", 0, run_checker(base, fresh))

# --- missing fresh file (directory mode) is a hard failure ---
bdir, fdir = fresh_dirs()
write(os.path.join(bdir, "BENCH_x.json"), record("x", [("m", 1.0, "ms")]))
os.makedirs(fdir, exist_ok=True)
expect(
    "missing fresh record fails",
    1,
    run_checker("--baseline-dir", bdir, "--fresh-dir", fdir),
    needle="not emitted",
)

# --- a metric dropped from the fresh record is a hard failure ---
bdir, fdir = fresh_dirs()
base = os.path.join(bdir, "BENCH_x.json")
fresh = os.path.join(fdir, "BENCH_x.json")
write(base, record("x", [("kept", 1.0, "ms"), ("dropped", 2.0, "ms")]))
write(fresh, record("x", [("kept", 1.0, "ms")]))
expect(
    "dropped metric fails",
    1,
    run_checker(base, fresh),
    needle="missing from fresh record",
)

# --- an EXTRA fresh metric is ignored (benches may grow ahead of the
# baseline), but must be called out ---
bdir, fdir = fresh_dirs()
base = os.path.join(bdir, "BENCH_x.json")
fresh = os.path.join(fdir, "BENCH_x.json")
write(base, record("x", [("m", 1.0, "ms")]))
write(fresh, record("x", [("m", 1.0, "ms"), ("extra", 9.0, "ms")]))
expect(
    "extra fresh metric passes with a note",
    0,
    run_checker(base, fresh),
    needle="new metric",
)

# --- unit change is an interface break ---
bdir, fdir = fresh_dirs()
base = os.path.join(bdir, "BENCH_x.json")
fresh = os.path.join(fdir, "BENCH_x.json")
write(base, record("x", [("m", 1.0, "ms")]))
write(fresh, record("x", [("m", 1.0, "us")]))
expect(
    "unit change fails", 1, run_checker(base, fresh), needle="unit changed"
)

# --- tolerance edges, time-like unit (fresh <= baseline * tol) ---
bdir, fdir = fresh_dirs()
base = os.path.join(bdir, "BENCH_x.json")
fresh = os.path.join(fdir, "BENCH_x.json")
write(base, record("x", [("m", 100.0, "ms")]))
write(fresh, record("x", [("m", 400.0, "ms")]))
expect(
    "time metric exactly at the 4x limit passes", 0, run_checker(base, fresh)
)
write(fresh, record("x", [("m", 400.0001, "ms")]))
expect(
    "time metric just above the limit fails",
    1,
    run_checker(base, fresh),
    needle="exceeds",
)
write(fresh, record("x", [("m", 400.0001, "ms")]))
expect(
    "wider --tolerance admits the same value",
    0,
    run_checker(base, fresh, "--tolerance", "8"),
)

# --- tolerance edges, ratio unit (fresh >= baseline / tol) ---
bdir, fdir = fresh_dirs()
base = os.path.join(bdir, "BENCH_x.json")
fresh = os.path.join(fdir, "BENCH_x.json")
write(base, record("x", [("speedup", 8.0, "x")]))
write(fresh, record("x", [("speedup", 2.0, "x")]))
expect(
    "ratio metric exactly at the floor passes", 0, run_checker(base, fresh)
)
write(fresh, record("x", [("speedup", 1.999, "x")]))
expect(
    "ratio metric below the floor fails",
    1,
    run_checker(base, fresh),
    needle="below baseline",
)

# --- unknown units are presence-only ---
bdir, fdir = fresh_dirs()
base = os.path.join(bdir, "BENCH_x.json")
fresh = os.path.join(fdir, "BENCH_x.json")
write(base, record("x", [("rate", 10.0, "frames")]))
write(fresh, record("x", [("rate", 0.001, "frames")]))
expect(
    "unknown unit is presence-only",
    0,
    run_checker(base, fresh),
    needle="not compared",
)

# --- schema mismatch is fatal ---
bdir, fdir = fresh_dirs()
base = os.path.join(bdir, "BENCH_x.json")
fresh = os.path.join(fdir, "BENCH_x.json")
doc = record("x", [("m", 1.0, "ms")])
doc["schema"] = 2
write(base, doc)
write(fresh, record("x", [("m", 1.0, "ms")]))
expect(
    "unknown schema fails", 1, run_checker(base, fresh), needle="schema"
)

# --- directory mode: empty baseline dir is a configuration error ---
bdir, fdir = fresh_dirs()
os.makedirs(bdir, exist_ok=True)
os.makedirs(fdir, exist_ok=True)
expect(
    "empty baseline dir fails",
    1,
    run_checker("--baseline-dir", bdir, "--fresh-dir", fdir),
    needle="no BENCH_",
)

# --- pair mode given directories is a usage error, not a traceback ---
bdir, fdir = fresh_dirs()
write(os.path.join(bdir, "BENCH_x.json"), record("x", [("m", 1.0, "ms")]))
write(os.path.join(fdir, "BENCH_x.json"), record("x", [("m", 1.0, "ms")]))
proc = run_checker(bdir, fdir)
expect(
    "pair mode given directories points at directory mode",
    2,
    proc,
    needle="--baseline-dir/--fresh-dir",
)
if "Traceback" in proc.stderr:
    sys.exit(f"FAIL pair mode given directories: traceback\n{proc.stderr}")

print(f"check_bench_baseline test: {PASSED} cases passed")
