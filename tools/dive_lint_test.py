#!/usr/bin/env python3
"""Self-test of tools/dive_lint.py.

Builds throwaway source trees and asserts each rule fires where it must
and stays quiet where it must not — including the contract's acceptance
check: deliberately inserting a std::steady_clock call into src/serve/
fails the lint. Runs as ctest 'lint/dive_lint_selftest'.
"""

import os
import shutil
import subprocess
import sys
import tempfile

LINT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "dive_lint.py")

PASSED = 0


def run_lint(root):
    return subprocess.run(
        [sys.executable, LINT, "--root", root],
        capture_output=True,
        text=True,
    )


def make_tree(files):
    """Creates a temp repo skeleton with the given {relpath: content}."""
    root = tempfile.mkdtemp(prefix="dive_lint_test_")
    for relpath, content in files.items():
        path = os.path.join(root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(content)
    return root


def expect(name, files, should_fail, needle=None):
    global PASSED
    root = make_tree(files)
    try:
        proc = run_lint(root)
    finally:
        shutil.rmtree(root)
    if should_fail and proc.returncode != 1:
        sys.exit(
            f"FAIL {name}: expected findings (exit 1), got exit "
            f"{proc.returncode}\nstdout: {proc.stdout}\nstderr: {proc.stderr}"
        )
    if not should_fail and proc.returncode != 0:
        sys.exit(
            f"FAIL {name}: expected clean (exit 0), got exit "
            f"{proc.returncode}\nstderr: {proc.stderr}"
        )
    if needle is not None and needle not in proc.stderr:
        sys.exit(
            f"FAIL {name}: expected {needle!r} in findings\n"
            f"stderr: {proc.stderr}"
        )
    print(f"ok: {name}")
    PASSED += 1


CLEAN_SERVE = """
#include <vector>
namespace dive::serve {
inline int sum(const std::vector<int>& v) {
  int acc = 0;
  for (int x : v) acc += x;
  return acc;
}
}
"""

# The acceptance-criteria case: a wall-clock read smuggled into the
# serving layer must be caught.
STEADY_CLOCK_SERVE = """
#include <chrono>
namespace dive::serve {
inline long long now_ns() {
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
}
"""

expect(
    "steady_clock in src/serve fails",
    {"src/serve/node.cpp": STEADY_CLOCK_SERVE},
    should_fail=True,
    needle="wall-clock",
)

expect(
    "clean serve file passes",
    {"src/serve/node.cpp": CLEAN_SERVE},
    should_fail=False,
)

expect(
    "steady_clock inside src/obs is the tracer's business",
    {"src/obs/trace.cpp": STEADY_CLOCK_SERVE.replace("serve", "obs")},
    should_fail=False,
)

expect(
    "steady_clock in a comment does not count",
    {
        "src/serve/node.cpp": CLEAN_SERVE
        + "// std::chrono::steady_clock::now() would be wrong here\n"
    },
    should_fail=False,
)

expect(
    "steady_clock in a string literal does not count",
    {
        "src/serve/node.cpp": CLEAN_SERVE
        + 'inline const char* kDoc = "std::chrono::steady_clock";\n'
    },
    should_fail=False,
)

expect(
    "dive-lint: allow(<rule>) escape suppresses the finding",
    {
        "src/serve/node.cpp": (
            "#include <chrono>\n"
            "// deliberate: documented drift probe\n"
            "auto t = std::chrono::steady_clock::now();"
            "  // dive-lint: allow(wall-clock)\n"
        )
    },
    should_fail=False,
)

expect(
    "allowlist file exempts a path",
    {
        "src/serve/node.cpp": STEADY_CLOCK_SERVE,
        "tools/dive_lint_allow.txt": "wall-clock src/serve/node.cpp\n",
    },
    should_fail=False,
)

expect(
    "allowlist entry for one rule does not cover another",
    {
        "src/serve/node.cpp": STEADY_CLOCK_SERVE,
        "tools/dive_lint_allow.txt": "ambient-rng src/serve/node.cpp\n",
    },
    should_fail=True,
    needle="wall-clock",
)

expect(
    "std::mt19937 outside util/rng fails",
    {
        "src/codec/encoder.cpp": (
            "#include <random>\n"
            "namespace dive::codec { std::mt19937 g_rng{42}; }\n"
        )
    },
    should_fail=True,
    needle="ambient-rng",
)

expect(
    "std::mt19937 inside src/util/rng.h is the seeded wrapper",
    {
        "src/util/rng.h": (
            "#include <random>\n"
            "namespace dive::util { struct Rng { std::mt19937_64 e; }; }\n"
        )
    },
    should_fail=False,
)

expect(
    "random_device anywhere in src fails",
    {
        "src/video/renderer.cpp": (
            "#include <random>\nstatic std::random_device rd;\n"
        )
    },
    should_fail=True,
    needle="ambient-rng",
)

expect(
    "range-for over an unordered_map in src/codec fails",
    {
        "src/codec/cache.cpp": (
            "#include <unordered_map>\n"
            "namespace dive::codec {\n"
            "std::unordered_map<int, int> table;\n"
            "int drain() { int s = 0; "
            "for (const auto& kv : table) s += kv.second; return s; }\n"
            "}\n"
        )
    },
    should_fail=True,
    needle="unordered-iter",
)

expect(
    "unordered_map lookup without iteration passes",
    {
        "src/codec/cache.cpp": (
            "#include <unordered_map>\n"
            "namespace dive::codec {\n"
            "std::unordered_map<int, int> table;\n"
            "int get(int k) { auto it = table.find(k); "
            "return it == table.end() ? 0 : it->second; }\n"
            "}\n"
        )
    },
    should_fail=False,
)

expect(
    "explicit begin() walk over an unordered_set fails",
    {
        "src/roi/metadata.cpp": (
            "#include <unordered_set>\n"
            "namespace dive::roi {\n"
            "std::unordered_set<int> lit;\n"
            "int first() { return *lit.begin(); }\n"
            "}\n"
        )
    },
    should_fail=True,
    needle="unordered-iter",
)

expect(
    "unordered_map iteration OUTSIDE the deterministic dirs passes",
    {
        "src/obs/metrics.cpp": (
            "#include <unordered_map>\n"
            "std::unordered_map<int, int> t;\n"
            "int s() { int a = 0; for (auto& kv : t) a += kv.second; "
            "return a; }\n"
        )
    },
    should_fail=False,
)

expect(
    "std::reduce over doubles in src/codec fails",
    {
        "src/codec/psnr.cpp": (
            "#include <numeric>\n#include <vector>\n"
            "double total(const std::vector<double>& v) {\n"
            "  return std::reduce(v.begin(), v.end(), 0.0);\n"
            "}\n"
        )
    },
    should_fail=True,
    needle="float-reduce",
)

expect(
    "std::execution::par in src/serve fails",
    {
        "src/serve/scheduler.cpp": (
            "#include <execution>\n#include <numeric>\n#include <vector>\n"
            "double t(const std::vector<double>& v) {\n"
            "  return std::reduce(std::execution::par, v.begin(), v.end());\n"
            "}\n"
        )
    },
    should_fail=True,
    needle="float-reduce",
)

expect(
    "range-for over an unordered_map in src/edge fails",
    {
        "src/edge/gate.cpp": (
            "#include <unordered_map>\n"
            "namespace dive::edge {\n"
            "std::unordered_map<int, double> held;\n"
            "double s() { double a = 0; for (auto& kv : held) a += kv.second; "
            "return a; }\n"
            "}\n"
        )
    },
    should_fail=True,
    needle="unordered-iter",
)

expect(
    "std::transform_reduce in src/edge fails",
    {
        "src/edge/server.cpp": (
            "#include <numeric>\n#include <vector>\n"
            "double area(const std::vector<double>& w, "
            "const std::vector<double>& h) {\n"
            "  return std::transform_reduce(w.begin(), w.end(), h.begin(), 0.0);\n"
            "}\n"
        )
    },
    should_fail=True,
    needle="float-reduce",
)

expect(
    "std::reduce over a frame's shading in src/video fails",
    {
        "src/video/renderer.cpp": (
            "#include <numeric>\n#include <vector>\n"
            "namespace dive::video {\n"
            "double mean_depth(const std::vector<double>& d) {\n"
            "  return std::reduce(d.begin(), d.end(), 0.0) / d.size();\n"
            "}\n"
            "}\n"
        )
    },
    should_fail=True,
    needle="float-reduce",
)

expect(
    "sequential std::accumulate is fine (fixed order)",
    {
        "src/codec/psnr.cpp": (
            "#include <numeric>\n#include <vector>\n"
            "double total(const std::vector<double>& v) {\n"
            "  return std::accumulate(v.begin(), v.end(), 0.0);\n"
            "}\n"
        )
    },
    should_fail=False,
)

# --- metric-name / metric-concat -------------------------------------

METRICS_PRELUDE = (
    "namespace dive::core {\n"
    "void record(dive::obs::MetricsRegistry& m) {\n"
)
METRICS_EPILOGUE = "}\n}\n"


def metric_file(body):
    return {"src/core/agent.cpp": METRICS_PRELUDE + body + METRICS_EPILOGUE}


expect(
    "well-formed layer-prefixed metric names pass",
    metric_file(
        '  m.counter("agent.frames").add();\n'
        '  m.distribution("net.transmit_ms", "ms").add(1.0);\n'
        '  m.gauge("obs.ledger.frames", "count").set(1.0);\n'
    ),
    should_fail=False,
)

expect(
    "unknown layer prefix fails",
    metric_file('  m.counter("pipeline.frames").add();\n'),
    should_fail=True,
    needle="metric-name",
)

expect(
    "dotless metric name fails",
    metric_file('  m.counter("frames").add();\n'),
    should_fail=True,
    needle="metric-name",
)

expect(
    "the unit argument is free-form (not name-checked)",
    metric_file('  m.distribution("agent.fg_area_pct", "%").add(1.0);\n'),
    should_fail=False,
)

expect(
    "ternary of two valid literals passes",
    metric_file(
        '  m.counter(true ? "roi.gated_frames" : "roi.full_frames").add();\n'
    ),
    should_fail=False,
)

expect(
    "ternary with one malformed literal fails",
    metric_file(
        '  m.counter(true ? "roi.gated_frames" : "fullFrames").add();\n'
    ),
    should_fail=True,
    needle="metric-name",
)

expect(
    "concatenated metric name on the recording path fails",
    metric_file(
        "  int i = 3;\n"
        '  m.counter("agent.session." + std::to_string(i)).add();\n'
    ),
    should_fail=True,
    needle="metric-concat",
)

expect(
    "operator+ of two name fragments fails",
    metric_file('  m.distribution(prefix + suffix, "ms").add(1.0);\n'),
    should_fail=True,
    needle="metric-concat",
)

expect(
    "pre-composed name variable passes (composed off the hot path)",
    metric_file('  m.distribution(name, "ms").add(1.0);\n'),
    should_fail=False,
)

expect(
    "metric call spanning lines: name on the continuation line checks",
    metric_file('  m.distribution(\n      "bogus.metric", "ms").add(1.0);\n'),
    should_fail=True,
    needle="metric-name",
)

expect(
    "metric name inside a comment does not count",
    metric_file('  // m.counter("bogus.frames") would be wrong\n'),
    should_fail=False,
)

expect(
    "allow(metric-concat) escape suppresses the finding",
    metric_file(
        '  m.counter("agent.x." + std::to_string(1))'
        ".add();  // dive-lint: allow(metric-concat)\n"
    ),
    should_fail=False,
)

# unset-knob: a *Config/*Options member in a src/ header must be
# assigned by some program; tests do not count.
KNOB_HEADER = """
#pragma once
#include <cstdint>
namespace dive::core {
struct FooConfig {
  int width = 0;
  /// Doc comments and member functions are not knobs.
  bool valid() const { return width > 0; }
  double knob = 1'000.5;
  static constexpr int kNotAKnob = 3;
};
}
"""

KNOB_SETTER_BENCH = """
#include "core/foo.h"
int main() {
  dive::core::FooConfig cfg{.width = 64};
  cfg.knob = 2.0;
  return cfg.valid() ? 0 : 1;
}
"""

expect(
    "config member only a test sets fails",
    {
        "src/core/foo.h": KNOB_HEADER,
        "bench/foo_bench.cpp": KNOB_SETTER_BENCH.replace(
            "  cfg.knob = 2.0;\n", ""
        ),
        "tests/core/foo_test.cpp": "void t(dive::core::FooConfig& c) "
        "{ c.knob = 3.0; }\n",
    },
    should_fail=True,
    needle="unset-knob: FooConfig::knob",
)

expect(
    "config members a program assigns pass (designated and member)",
    {"src/core/foo.h": KNOB_HEADER, "bench/foo_bench.cpp": KNOB_SETTER_BENCH},
    should_fail=False,
)

expect(
    "nested and pointer assignments count",
    {
        "src/core/foo.h": KNOB_HEADER,
        "examples/foo.cpp": "struct Outer { dive::core::FooConfig foo; };\n"
        "void set(Outer* o) { o->foo.width = 3; o->foo.knob += 1.0; }\n",
    },
    should_fail=False,
)

expect(
    "a comparison is not an assignment",
    {
        "src/core/foo.h": KNOB_HEADER,
        "bench/foo_bench.cpp": KNOB_SETTER_BENCH.replace(
            "cfg.knob = 2.0;", "(void)(cfg.knob == 2.0);"
        ),
    },
    should_fail=True,
    needle="unset-knob: FooConfig::knob",
)

expect(
    "allow(unset-knob) escape on the member keeps a deliberate knob",
    {
        "src/core/foo.h": KNOB_HEADER.replace(
            "double knob = 1'000.5;",
            "double knob = 1'000.5;  // dive-lint: allow(unset-knob) tests",
        ),
        "bench/foo_bench.cpp": KNOB_SETTER_BENCH.replace(
            "  cfg.knob = 2.0;\n", ""
        ),
    },
    should_fail=False,
)

print(f"dive_lint self-test: {PASSED} cases passed")
