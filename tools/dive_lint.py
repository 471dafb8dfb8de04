#!/usr/bin/env python3
"""dive_lint: DiVE's determinism contract as an executable check.

The verification contract (ROADMAP, DESIGN §14) requires that everything
on the agent→edge reproduction path is a pure function of its inputs:
the mobile agent and the edge server must agree bit-for-bit on
reconstructed frames and RoI sidecars, across thread counts, SIMD
kernels, and batch interleavings. Ambient inputs — wall clocks, global
RNGs, unordered-container iteration order, reassociated float reductions
— are exactly the bugs that pass every unit test and then desynchronize
a serve node. This lint forbids them at the source level:

  wall-clock    std::chrono::{system,steady,high_resolution}_clock and
                C time APIs outside src/obs/ (the tracer owns wall time;
                everything else runs on util::SimTime).
  ambient-rng   rand/srand/std::random_device/std::mt19937* outside
                src/util/rng.* (randomness flows through seeded
                util::Rng streams, never process-global state).
  unordered-iter  iteration over std::unordered_{map,set} in the
                deterministic directories (src/codec, src/roi,
                src/serve, src/core) — iteration order is unspecified
                and varies across libstdc++ versions and hash seeds.
  float-reduce  order-unspecified float/double reductions (std::reduce,
                std::transform_reduce, parallel execution policies, omp
                reductions) in the deterministic directories — float
                addition does not reassociate.
  metric-name   string literals passed to MetricsRegistry::{counter,
                gauge,distribution} must be dot-separated
                <layer>.<subsystem>.<metric> with the layer prefix one
                of {agent, codec, net, edge, serve, roi, obs} — the
                prefix doubles as the trace category, and exports sort
                by name, so a stray scheme scatters one subsystem's
                metrics across the table.
  metric-concat string concatenation (`+`, std::to_string) in the name
                argument of a metric call — every call re-allocates the
                name and re-walks the registry map, which is exactly the
                per-frame hot-path cost the handle API exists to avoid.
                Compose dynamic names once, outside the recording path.
  unset-knob    a data member of a struct named *Config/*Options in a
                src/ header that no program assigns. Programs are the
                files under src/, bench/, examples/, fuzz/ and perfbench/;
                tests do not count. Assignments are `.name =`, `->name =`
                (compound assignment too), designated initializers
                `{.name = ...}` and nested `.name.field =`. Matching is by
                member name. A knob no program sets is a constant in
                disguise: make it a named constant beside its reader, or
                mark a deliberate one with the escape and a reason.

Escapes, in preference order:
  1. a `// dive-lint: allow(<rule>)` comment on the offending line;
  2. a `<rule> <path-prefix>` line in tools/dive_lint_allow.txt for
     whole-file/directory exemptions (kept deliberately short — every
     entry is a determinism argument someone must be able to defend).

The scanner is comment- and string-aware: matches inside comments and
string literals do not count (so this docstring cannot lint itself).
Exit 0 = clean, 1 = findings, 2 = usage error.

Usage:
  tools/dive_lint.py --root .            # lint <root>/src (the default)
  tools/dive_lint.py --root . --list-rules
"""

import argparse
import os
import re
import sys

# Directories (relative to --root) whose code must be bit-deterministic.
DETERMINISTIC_DIRS = ("src/codec", "src/roi", "src/serve", "src/core")

# Files scanned overall.
SOURCE_EXTENSIONS = (".cpp", ".h")

# Directories (relative to --root) whose assignments make a knob "set"
# for the unset-knob rule: every program, no tests.
PROGRAM_DIRS = ("src", "bench", "examples", "fuzz", "perfbench")

ALLOWLIST_FILE = os.path.join("tools", "dive_lint_allow.txt")

ESCAPE_RE = re.compile(r"dive-lint:\s*allow\(([a-z0-9-]+)\)")


class Rule:
    def __init__(self, name, description, pattern, applies, message):
        self.name = name
        self.description = description
        self.pattern = re.compile(pattern)
        self.applies = applies  # fn(relpath) -> bool
        self.message = message


def in_deterministic_dirs(relpath):
    return relpath.startswith(DETERMINISTIC_DIRS)


def outside(prefix):
    return lambda relpath: not relpath.startswith(prefix)


RULES = [
    Rule(
        "wall-clock",
        "wall-clock reads outside src/obs/ (use util::SimTime)",
        r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
        r"|\b(clock_gettime|gettimeofday|localtime|gmtime)\s*\("
        r"|\bstd::time\s*\(",
        outside("src/obs/"),
        "wall-clock read in a simulated-time codebase; only src/obs/ may "
        "touch real clocks",
    ),
    Rule(
        "ambient-rng",
        "ambient randomness outside src/util/rng.* (use util::Rng)",
        r"std::random_device|std::mt19937|std::default_random_engine"
        r"|\b(rand|srand|random)\s*\(\s*\)",
        outside("src/util/rng"),
        "ambient RNG; randomness must flow through seeded util::Rng "
        "streams (src/util/rng.h)",
    ),
    Rule(
        "float-reduce",
        "order-unspecified float reductions in deterministic directories",
        r"std::reduce\s*\(|std::transform_reduce\s*\("
        r"|std::execution::(par|par_unseq|unseq)"
        r"|#\s*pragma\s+omp\b[^\n]*reduction",
        in_deterministic_dirs,
        "order-unspecified reduction; float accumulation must run in a "
        "fixed sequential order on deterministic paths",
    ),
]

# Metric-call hygiene: the layer vocabulary of the metric naming scheme
# (DESIGN §15); the prefix before the first dot doubles as the trace
# category.
METRIC_LAYERS = ("agent", "codec", "net", "edge", "serve", "roi", "obs")
METRIC_CALL_RE = re.compile(r"\.\s*(counter|gauge|distribution)\s*\(")
METRIC_NAME_RE = re.compile(
    r"^(" + "|".join(METRIC_LAYERS) + r")(\.[a-z0-9_]+)+$"
)
METRIC_CONCAT_RE = re.compile(r"\+|\bto_string\s*\(")
STRING_LIT_RE = re.compile(r'"((?:[^"\\]|\\.)*)"')

UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*>\s*"
    r"&?\s*(\w+)\s*[;={(,)]"
)
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*?:\s*([^)]*)\)")
UNORDERED_INLINE_RE = re.compile(r"std\s*::\s*unordered_(?:map|set)\b")


def is_digit_separator(text, i):
    """True when the quote at text[i] separates digits (`1'000`): the
    token it ends starts with a digit. A char literal's prefix (`u8'x'`,
    `L'x'`) starts with a letter, and a bare `'x'` follows no token."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "'._"):
        j -= 1
    return j < i and text[j].isdigit()


def strip_comments_and_strings(text):
    """Blanks out comments, string and char literals, preserving line
    structure and column positions (a crude but honest C++ lexer)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
            elif c == '"':
                m = re.match(r'R"([^(\s\\"]*)\(', text[i:])
                if m:
                    state = "raw"
                    raw_delim = ")" + m.group(1) + '"'
                    out.append(" " * (len(m.group(0))))
                    i += len(m.group(0))
                else:
                    state = "str"
                    out.append(" ")
                    i += 1
            elif c == "'" and is_digit_separator(text, i):
                out.append(c)
                i += 1
            elif c == "'":
                state = "chr"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "str":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "chr":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(" " * len(raw_delim))
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def load_allowlist(root):
    """Returns a list of (rule, path_prefix) exemptions."""
    path = os.path.join(root, ALLOWLIST_FILE)
    entries = []
    if not os.path.exists(path):
        return entries
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                sys.exit(
                    f"{path}:{lineno}: malformed allowlist entry "
                    f"(want '<rule> <path-prefix>'): {line!r}"
                )
            entries.append((parts[0], parts[1]))
    return entries


def allowed(allowlist, rule, relpath):
    return any(r == rule and relpath.startswith(p) for r, p in allowlist)


def check_unordered_iteration(relpath, stripped_lines):
    """Per-file heuristic for the unordered-iter rule: collect names
    declared with an unordered container type, then flag range-fors and
    explicit iterator walks over them (or over inline unordered
    expressions)."""
    findings = []
    declared = set()
    for line in stripped_lines:
        for m in UNORDERED_DECL_RE.finditer(line):
            declared.add(m.group(1))
    name_re = (
        re.compile(r"\b(" + "|".join(map(re.escape, sorted(declared))) + r")\b")
        if declared
        else None
    )
    for lineno, line in enumerate(stripped_lines, 1):
        for m in RANGE_FOR_RE.finditer(line):
            range_expr = m.group(1)
            if UNORDERED_INLINE_RE.search(range_expr) or (
                name_re and name_re.search(range_expr)
            ):
                findings.append(
                    (
                        lineno,
                        "iteration over std::unordered_{map,set}: order is "
                        "unspecified; use std::map, a sorted vector, or sort "
                        "the keys first",
                    )
                )
        if name_re:
            for name in name_re.findall(line):
                # .begin()/.cbegin() starts an ordered walk; .end() alone
                # is just the find()-lookup sentinel and stays legal.
                if re.search(
                    re.escape(name) + r"\s*\.\s*c?begin\s*\(", line
                ):
                    findings.append(
                        (
                            lineno,
                            f"iterator walk over unordered container "
                            f"'{name}': order is unspecified",
                        )
                    )
    return findings


def first_arg_region(stripped_lines, raw_lines, lineno, col):
    """Returns (stripped, raw) text of a call's first argument, scanning
    from just past the open paren at (lineno 1-based, col 0-based) across
    up to 4 physical lines. Terminates at the matching close paren or the
    first depth-1 comma. The stripper is column-preserving, so the same
    slice indexes both views: structure comes from the stripped text
    (parens inside string literals don't confuse the depth count), the
    literal contents from the raw text."""
    s_parts, r_parts = [], []
    depth = 1
    for k in range(4):
        idx = lineno - 1 + k
        if idx >= len(stripped_lines):
            break
        s = stripped_lines[idx]
        r = raw_lines[idx] if idx < len(raw_lines) else ""
        start = col if k == 0 else 0
        for i in range(start, len(s)):
            c = s[i]
            if c == "(":
                depth += 1
            elif c == ")":
                depth -= 1
                if depth == 0:
                    s_parts.append(s[start:i])
                    r_parts.append(r[start:i])
                    return "".join(s_parts), "".join(r_parts)
            elif c == "," and depth == 1:
                s_parts.append(s[start:i])
                r_parts.append(r[start:i])
                return "".join(s_parts), "".join(r_parts)
        s_parts.append(s[start:])
        r_parts.append(r[start:])
    return "".join(s_parts), "".join(r_parts)


def check_metric_calls(stripped_lines, raw_lines):
    """metric-name / metric-concat: validates the name argument of every
    MetricsRegistry::{counter,gauge,distribution} call. Only the first
    argument is inspected (the second is the free-form unit). A call
    whose first argument holds no string literal and no concatenation
    passes a pre-composed name — legal by construction."""
    findings = []
    for lineno, line in enumerate(stripped_lines, 1):
        for m in METRIC_CALL_RE.finditer(line):
            s_arg, r_arg = first_arg_region(
                stripped_lines, raw_lines, lineno, m.end()
            )
            if METRIC_CONCAT_RE.search(s_arg):
                findings.append(
                    (
                        lineno,
                        "metric-concat",
                        "metric name built by concatenation at the call "
                        "site; every record re-allocates the name and "
                        "re-walks the registry map — compose dynamic names "
                        "once, outside the recording path",
                    )
                )
                continue
            for lit in STRING_LIT_RE.findall(r_arg):
                if not METRIC_NAME_RE.match(lit):
                    findings.append(
                        (
                            lineno,
                            "metric-name",
                            f'metric name "{lit}" must be dot-separated '
                            "<layer>.<subsystem>.<metric> with the layer "
                            "one of {" + ", ".join(METRIC_LAYERS) + "}",
                        )
                    )
    return findings


KNOB_STRUCT_RE = re.compile(
    r"\bstruct\s+(\w+(?:Config|Options))\s*(?::[^{;]*)?\{"
)
NOT_A_MEMBER_RE = re.compile(
    r"(using|static|friend|enum|struct|class|union|typedef|template)\b"
)
ACCESS_RE = re.compile(r"^(public|private|protected)\s*:")


def knob_members(stripped_text):
    """Data members of every struct named *Config/*Options in one
    comment-stripped header: a list of (struct, member, lineno). Member
    functions, nested types, static and using declarations are skipped."""
    members = []
    s = stripped_text
    for m in KNOB_STRUCT_RE.finditer(s):
        i = m.end()
        depth, parens = 1, 0
        start = i
        brace_head = ""
        statements = []
        while i < len(s) and depth > 0:
            c = s[i]
            if c == "(":
                parens += 1
            elif c == ")":
                parens -= 1
            elif c == "{":
                if depth == 1:
                    brace_head = s[start:i]
                depth += 1
            elif c == "}":
                depth -= 1
                # A function body closes a declaration without a ';'.
                if depth == 1 and "(" in brace_head:
                    statements.append((start, s[start : i + 1]))
                    start = i + 1
            elif c == ";" and depth == 1 and parens == 0:
                statements.append((start, s[start:i]))
                start = i + 1
            i += 1
        for pos, text in statements:
            decl = ACCESS_RE.sub("", text.strip()).strip()
            if not decl or NOT_A_MEMBER_RE.match(decl):
                continue
            head = re.split(r"[={]", decl, maxsplit=1)[0]
            if "(" in head:
                continue  # a function or constructor
            name = re.search(r"(\w+)\s*(?:\[[^\]]*\])?\s*$", head)
            if name is None:
                continue
            offset = pos + text.index(decl) + head.rindex(name.group(1))
            lineno = s.count("\n", 0, offset) + 1
            members.append((m.group(1), name.group(1), lineno))
    return members


def assigned_member_names(root):
    """Names assigned anywhere in the program directories (see the
    unset-knob rule): `.name`/`->name`, optionally followed by nested
    `.field`s, then `=` or a compound assignment."""
    pattern = re.compile(
        r"(?:\.|->)\s*(\w+)(?:\s*(?:\.|->)\s*\w+)*\s*"
        r"(?:[-+*/%&|^]|<<|>>)?=(?!=)"
    )
    names = set()
    for subdir in PROGRAM_DIRS:
        if not os.path.isdir(os.path.join(root, subdir)):
            continue
        for relpath in iter_source_files(root, subdir):
            with open(os.path.join(root, relpath), encoding="utf-8",
                      errors="replace") as f:
                stripped = strip_comments_and_strings(f.read())
            for m in pattern.finditer(stripped):
                # Every name on the access path counts: `.a.b = x` sets b
                # and, through it, a.
                names.update(re.findall(r"\w+", m.group(0)))
    return names


def lint_file(root, relpath, allowlist, assigned_names=frozenset()):
    path = os.path.join(root, relpath)
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        sys.exit(f"{relpath}: unreadable: {e}")

    raw_lines = text.splitlines()
    stripped_lines = strip_comments_and_strings(text).splitlines()
    # Line-level escapes are read from the RAW text (they live in
    # comments, which the stripper removes).
    escapes = {}
    for lineno, line in enumerate(raw_lines, 1):
        for m in ESCAPE_RE.finditer(line):
            escapes.setdefault(lineno, set()).add(m.group(1))

    findings = []

    def emit(rule_name, lineno, message):
        if rule_name in escapes.get(lineno, ()):
            return
        if allowed(allowlist, rule_name, relpath):
            return
        findings.append(f"{relpath}:{lineno}: {rule_name}: {message}")

    for rule in RULES:
        if not rule.applies(relpath):
            continue
        for lineno, line in enumerate(stripped_lines, 1):
            if rule.pattern.search(line):
                emit(rule.name, lineno, rule.message)

    if in_deterministic_dirs(relpath):
        for lineno, message in check_unordered_iteration(
            relpath, stripped_lines
        ):
            emit("unordered-iter", lineno, message)

    for lineno, rule_name, message in check_metric_calls(
        stripped_lines, raw_lines
    ):
        emit(rule_name, lineno, message)

    if relpath.endswith(".h"):
        for struct, member, lineno in knob_members("\n".join(stripped_lines)):
            if member not in assigned_names:
                emit(
                    "unset-knob",
                    lineno,
                    f"{struct}::{member} is set by no program ("
                    + ", ".join(PROGRAM_DIRS)
                    + "); make it a named constant beside its reader, or "
                    "mark a deliberate knob with the escape and a reason",
                )

    return findings


def iter_source_files(root, subdir="src"):
    base = os.path.join(root, subdir)
    if not os.path.isdir(base):
        sys.exit(f"{base}: not a directory (bad --root?)")
    for dirpath, _dirnames, filenames in os.walk(base):
        for name in sorted(filenames):
            if name.endswith(SOURCE_EXTENSIONS):
                full = os.path.join(dirpath, name)
                yield os.path.relpath(full, root).replace(os.sep, "/")


def main():
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    args = ap.parse_args()

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.name}: {rule.description}")
        print(
            "unordered-iter: iteration over std::unordered_{map,set} in "
            + ", ".join(DETERMINISTIC_DIRS)
        )
        print(
            "metric-name: metric name literals must be "
            "<layer>.<subsystem>.<metric>, layer in {"
            + ", ".join(METRIC_LAYERS)
            + "}"
        )
        print(
            "metric-concat: no string concatenation in the name argument "
            "of metric calls (hot-path allocation)"
        )
        print(
            "unset-knob: *Config/*Options data members in src/ headers "
            "that no program (" + ", ".join(PROGRAM_DIRS) + ") assigns"
        )
        return 0

    root = os.path.abspath(args.root)
    allowlist = load_allowlist(root)
    assigned = assigned_member_names(root)
    all_findings = []
    files = 0
    for relpath in iter_source_files(root):
        files += 1
        all_findings.extend(lint_file(root, relpath, allowlist, assigned))

    if all_findings:
        print(f"dive_lint: {len(all_findings)} finding(s):", file=sys.stderr)
        for finding in all_findings:
            print(f"  {finding}", file=sys.stderr)
        print(
            "\nsuppress a deliberate use with '// dive-lint: allow(<rule>)' "
            f"on the line, or a '<rule> <path>' entry in {ALLOWLIST_FILE}",
            file=sys.stderr,
        )
        return 1
    print(f"dive_lint: {files} files clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
