#!/usr/bin/env python3
"""Self-test of tools/trace_report.py.

Feeds synthetic ledger/trace JSON through the report and asserts the
acceptance gates: a fully-attributed ledger passes --check, an
attribution gap fails it, a dropped frame without stage intervals fails
the autopsy gate, and a completed frame missing its flow arrows fails
the trace cross-check. Runs as ctest 'lint/trace_report_selftest'.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

REPORT = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "trace_report.py"
)

PASSED = 0


def frame(session, idx, seq, capture, finished, outcome, stages,
          deadline=400000):
    return {
        "session": session,
        "frame": idx,
        "seq": seq,
        "capture_us": capture,
        "deadline_us": capture + deadline,
        "finished_us": finished,
        "outcome": outcome,
        "stages": [
            {"stage": s, "begin_us": b, "end_us": e} for s, b, e in stages
        ],
    }


# A healthy frame: stages tile [capture, finished] exactly.
GOOD_FRAME = frame(
    0, 0, 1, 0, 75000, "completed",
    [
        ("encode", 0, 16000),
        ("transmit", 16000, 36000),
        ("propagation", 36000, 46000),
        ("admission_wait", 46000, 46000),
        ("batch_wait", 46000, 50000),
        ("inference", 50000, 67000),
        ("result", 67000, 75000),
    ],
)

# 30 ms of its 75 ms budget unattributed (transmit interval missing).
GAPPY_FRAME = frame(
    0, 1, 2, 100000, 175000, "completed",
    [
        ("encode", 100000, 116000),
        ("propagation", 136000, 146000),
        ("inference", 150000, 167000),
        ("result", 167000, 175000),
    ],
)

# Dropped with no stage intervals at all: no autopsy cause.
CAUSELESS_DROP = frame(1, 0, 3, 200000, 240000, "dropped_deadline", [])

# Dropped, but the transmit interval names the cause.
CAUSED_DROP = frame(
    1, 1, 4, 300000, 340000, "dropped_uplink",
    [("encode", 300000, 316000), ("transmit", 316000, 340000)],
)


def ledger(frames):
    return {"schema": 1, "frames": frames}


def flow_chain(seq, phases):
    return [
        {"ph": p, "pid": 1, "tid": 3, "name": "frame", "cat": "flow",
         "id": seq, "ts": 1000 * i}
        for i, p in enumerate(phases)
    ]


def trace(events):
    return {"displayTimeUnit": "ms", "traceEvents": events}


def run_report(ledger_obj, trace_obj=None, check=True):
    d = tempfile.mkdtemp(prefix="trace_report_test_")
    lpath = os.path.join(d, "ledger.json")
    with open(lpath, "w") as f:
        json.dump(ledger_obj, f)
    cmd = [sys.executable, REPORT, "--ledger", lpath]
    if trace_obj is not None:
        tpath = os.path.join(d, "trace.json")
        with open(tpath, "w") as f:
            json.dump(trace_obj, f)
        cmd += ["--trace", tpath]
    if check:
        cmd.append("--check")
    try:
        return subprocess.run(cmd, capture_output=True, text=True)
    finally:
        shutil.rmtree(d)


def expect(name, proc, want_rc, needle=None):
    global PASSED
    if proc.returncode != want_rc:
        sys.exit(
            f"FAIL {name}: expected exit {want_rc}, got {proc.returncode}\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    if needle is not None and needle not in proc.stdout + proc.stderr:
        sys.exit(
            f"FAIL {name}: expected {needle!r} in output\n"
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    print(f"ok: {name}")
    PASSED += 1


expect(
    "fully attributed ledger passes --check",
    run_report(ledger([GOOD_FRAME, CAUSED_DROP])),
    0,
    needle="check OK",
)

expect(
    "report renders the waterfall and diagnosis",
    run_report(ledger([GOOD_FRAME, CAUSED_DROP]), check=False),
    0,
    needle="per-stage waterfall",
)

expect(
    "dropped frame's dominant stage named in the autopsy",
    run_report(ledger([GOOD_FRAME, CAUSED_DROP]), check=False),
    0,
    needle="dropped_uplink",
)

expect(
    "uplink-dominated misses diagnose as uplink-bound",
    run_report(ledger([GOOD_FRAME, CAUSED_DROP]), check=False),
    0,
    needle="uplink-bound",
)

expect(
    "attribution gap fails --check",
    run_report(ledger([GOOD_FRAME, GAPPY_FRAME])),
    1,
    needle="attribute only",
)

expect(
    "drop without stage intervals fails the autopsy gate",
    run_report(ledger([GOOD_FRAME, CAUSELESS_DROP])),
    1,
    needle="no dominant-stage cause",
)

expect(
    "complete flow chain passes the trace cross-check",
    run_report(
        ledger([GOOD_FRAME]),
        trace(flow_chain(1, ["s", "t", "f"])),
    ),
    0,
    needle="check OK",
)

expect(
    "completed frame without flow arrows fails the trace cross-check",
    run_report(ledger([GOOD_FRAME]), trace([])),
    1,
    needle="no flow arrows",
)

expect(
    "malformed flow chain (no terminating f) fails",
    run_report(
        ledger([GOOD_FRAME]),
        trace(flow_chain(1, ["s", "t", "t"])),
    ),
    1,
    needle="malformed",
)

expect(
    "flow id with no ledger frame fails",
    run_report(
        ledger([GOOD_FRAME]),
        trace(flow_chain(1, ["s", "f"]) + flow_chain(99, ["s", "f"])),
    ),
    1,
    needle="no matching ledger frame",
)

expect(
    "empty ledger is a usage error",
    run_report(ledger([])),
    2,
    needle="no frames",
)

print(f"trace_report self-test: {PASSED} cases passed")
