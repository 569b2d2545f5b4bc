#!/usr/bin/env python3
"""Determinism lint for the EXIST source tree.

The repo's headline invariant is that reports are bit-identical across
thread and shard counts (DESIGN.md §8).  Three source-level patterns
are the usual way that invariant rots, so this lint bans them outright:

  raw-rand             rand()/srand()/drand48()/std::random_device/
                       std::mt19937 etc. outside util/rng.h.  All
                       randomness must flow through exist::Rng streams
                       seeded with splitmix64 so results depend only on
                       (seed, id), never on global RNG call order.
  time-seeded-rng      time(...)/clock()/steady_clock::now() feeding a
                       seed.  Wall-clock seeds make every run unique.
  unordered-iteration  std::unordered_{map,set,multimap,multiset} in
                       the deterministic output layers (analysis,
                       cluster, decode, core, hwtrace).  Hash-map
                       iteration order is implementation-defined and
                       must never feed serialized output or report
                       assembly; use std::map/std::set or sort first.
  raw-locking          std::mutex / std::lock_guard / std::unique_lock /
                       std::condition_variable and friends outside
                       util/thread_annotations.h + util/lock_order.cc.
                       Locking must go through the annotated exist::
                       Mutex/MutexLock/CondVar wrappers so Clang's
                       thread-safety analysis and the debug lock-order
                       validator see every acquisition.
  pointer-keyed-container
                       std::map/std::set (ordered or unordered) keyed
                       by a raw pointer in the deterministic output
                       layers.  Pointer keys order (or hash) by
                       allocation address, so iteration order varies
                       run to run under ASLR/allocator drift; key by a
                       stable id (block index, function id, name) or
                       sort by a value-derived field before emitting.

  raw-file-io          fopen/freopen/std::ofstream/std::fstream
                       outside src/durability/ and the cluster
                       storage layer.  Durable bytes must flow
                       through the WAL/snapshot code (checksummed,
                       crash-point-instrumented, replay-validated);
                       ad-hoc file writes elsewhere create state that
                       recovery cannot see and reports must never
                       depend on.

  obs-read-back        obs::snapshot()/chromeTraceJson()/
                       flightDumpText()/flightDumpTo() and the obs
                       counters outside src/obs/.  The self-tracing
                       plane is write-only from product code: span
                       emission must never feed report bytes, or the
                       spans-on == spans-off byte-identity guarantee
                       (and with it report determinism) silently
                       breaks.  Read-side consumers live in tools/,
                       bench/, and tests/, which are not report
                       producers.

Suppression, narrowest first:
  * an inline `// lint-allow: <rule>` comment on the offending line;
  * a `path:rule` line in tools/analysis_allow.txt (shared with
    tools/analyzer/exist_analyzer.py, so one justified waiver covers
    both the regex and the AST layer).

This lint is the fast regex layer; tools/analyzer/exist_analyzer.py
re-implements the unordered-iteration, pointer-keyed-container, and
raw-locking rules as alias- and dataflow-aware AST passes.  Where the
analyzer also runs, pass `--defer-to-analyzer`: those three rules are
then reported as warnings only (the AST layer is the gate), while the
purely lexical rules (raw-rand, time-seeded-rng, raw-file-io) stay
hard failures here.

Exit status: 0 = clean, 1 = findings, 2 = usage/internal error.

`--self-test` runs the rules over tools/lint_fixtures/ and checks that
each bad_*.cc fixture trips exactly its named rule and good_*.cc stays
clean.  Fixtures declare the path the lint should pretend they live at
with a first-line `// lint-virtual-path: src/...` comment, so the
path-scoped rules (unordered-iteration, raw-locking) are exercised
without planting bad code inside src/.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories whose serialized output / report assembly must be
# deterministic: hash-map iteration there is a bug even when today's
# use happens to be order-insensitive, because the next edit won't be.
ORDERED_OUTPUT_DIRS = (
    "src/analysis/",
    "src/cluster/",
    "src/decode/",
    "src/core/",
    "src/hwtrace/",
)

# Files allowed to name raw std synchronisation primitives: the wrapper
# that instruments them, and the validator whose own bookkeeping must
# not recurse into instrumented locks.
RAW_LOCKING_WRAPPERS = (
    "src/util/thread_annotations.h",
    "src/util/lock_order.cc",
    "src/util/lock_order.h",
)

RNG_HOME = "src/util/rng.h"

# The only places allowed to touch files directly: the durability
# plane (WAL + snapshots own all persistent bytes) and the simulated
# cluster storage layer.
FILE_IO_HOMES = (
    "src/durability/",
    "src/cluster/storage",
)

# The self-observability plane (src/obs) is write-only telemetry:
# report-producing code may emit spans but never read the rings back,
# or span timing could leak into report bytes and break the
# spans-on == spans-off byte identity. Only the plane itself may call
# its read-side API; CLI/bench/test surfaces live outside src/ and are
# not linted.
OBS_READ_HOMES = (
    "src/obs/",
)

RULES = [
    (
        "raw-rand",
        re.compile(
            r"\b(?:std::)?(?:rand|srand|rand_r|drand48|lrand48|mrand48|"
            r"srand48|random)\s*\("
            r"|std::random_device\b"
            r"|std::(?:mt19937|mt19937_64|minstd_rand0?|ranlux\w+|"
            r"knuth_b|default_random_engine)\b"
        ),
        None,  # applies everywhere under src/ except RNG_HOME
    ),
    (
        "time-seeded-rng",
        re.compile(
            r"\b(?:seed|srand|srand48|Rng|rng)\s*\(?[^;\n]*"
            r"(?:\btime\s*\(\s*(?:NULL|nullptr|0)?\s*\)"
            r"|\bclock\s*\(\s*\)"
            r"|steady_clock::now|system_clock::now"
            r"|high_resolution_clock::now)"
        ),
        None,
    ),
    (
        "unordered-iteration",
        re.compile(r"\bstd::unordered_(?:map|set|multimap|multiset)\b"),
        ORDERED_OUTPUT_DIRS,
    ),
    (
        "pointer-keyed-container",
        re.compile(
            r"\bstd::(?:unordered_)?(?:map|set|multimap|multiset)\s*<\s*"
            r"(?:const\s+)?[\w:]+(?:\s+const)?\s*\*"
        ),
        ORDERED_OUTPUT_DIRS,
    ),
    (
        "raw-file-io",
        re.compile(
            r"\bfopen\s*\(|\bfreopen\s*\("
            r"|\bstd::o?fstream\b"
        ),
        None,  # applies everywhere under src/ except FILE_IO_HOMES
    ),
    (
        "obs-read-back",
        re.compile(
            r"\b(?:obs::)?(?:chromeTraceJson|flightDumpText|"
            r"flightDumpTo)\s*\("
            r"|\bobs::(?:snapshot|eventsRecorded|eventsLost|"
            r"threadsRegistered|threadsDropped)\s*\("
        ),
        None,  # applies everywhere under src/ except OBS_READ_HOMES
    ),
    (
        "raw-locking",
        re.compile(
            r"\bstd::(?:mutex|timed_mutex|recursive_mutex|shared_mutex|"
            r"shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
            r"shared_lock|condition_variable(?:_any)?)\b"
        ),
        None,
    ),
]

# Rules that tools/analyzer/exist_analyzer.py re-implements as
# AST-accurate passes; with --defer-to-analyzer they demote to
# warnings and the AST layer is the gate.
ANALYZER_SUPERSEDED = {
    "unordered-iteration",
    "pointer-keyed-container",
    "raw-locking",
}

ALLOW_RE = re.compile(r"//\s*lint-allow:\s*([\w,\- ]+)")
VPATH_RE = re.compile(r"^//\s*(?:lint|analyzer)-virtual-path:\s*(\S+)")


def strip_code(line, in_block):
    """Drop string/char literals and comments; keep structure.

    Returns (code, in_block).  A line-based scanner is enough here: the
    tree has no raw strings or multi-line literals on lint-relevant
    lines, and false negatives from exotic quoting would still be
    caught by review.
    """
    out = []
    i, n = 0, len(line)
    while i < n:
        if in_block:
            end = line.find("*/", i)
            if end < 0:
                return "".join(out), True
            i = end + 2
            in_block = False
            continue
        c = line[i]
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            break
        if c == "/" and i + 1 < n and line[i + 1] == "*":
            in_block = True
            i += 2
            continue
        if c in "\"'":
            quote = c
            i += 1
            while i < n:
                if line[i] == "\\":
                    i += 2
                    continue
                if line[i] == quote:
                    i += 1
                    break
                i += 1
            out.append(quote + quote)  # keep an empty literal in place
            continue
        out.append(c)
        i += 1
    return "".join(out), in_block


def load_allowlist(path):
    allow = set()
    if not os.path.exists(path):
        return allow
    with open(path, encoding="utf-8") as f:
        for raw in f:
            entry = raw.split("#", 1)[0].strip()
            if not entry:
                continue
            if ":" not in entry:
                sys.stderr.write(
                    "determinism_lint: malformed allowlist entry %r "
                    "(want path:rule)\n" % entry
                )
                sys.exit(2)
            allow.add(tuple(entry.rsplit(":", 1)))
    return allow


def lint_file(path, rel, allowlist):
    """Return a list of (rel, lineno, rule, line) findings."""
    findings = []
    with open(path, encoding="utf-8", errors="replace") as f:
        lines = f.read().splitlines()

    # Fixtures pretend to live somewhere under src/ so the path-scoped
    # rules fire; real sources never carry the marker.
    if lines and (m := VPATH_RE.match(lines[0])):
        rel = m.group(1)

    in_block = False
    for lineno, raw in enumerate(lines, start=1):
        inline_allow = set()
        if m := ALLOW_RE.search(raw):
            inline_allow = {r.strip() for r in m.group(1).split(",")}
        code, in_block = strip_code(raw, in_block)
        if not code.strip():
            continue
        for rule, pattern, dirs in RULES:
            if rule == "raw-rand" and rel == RNG_HOME:
                continue
            if rule == "raw-locking" and rel in RAW_LOCKING_WRAPPERS:
                continue
            if rule == "raw-file-io" and rel.startswith(FILE_IO_HOMES):
                continue
            if rule == "obs-read-back" and rel.startswith(
                OBS_READ_HOMES
            ):
                continue
            if dirs is not None and not rel.startswith(dirs):
                continue
            if not pattern.search(code):
                continue
            if rule in inline_allow or (rel, rule) in allowlist:
                continue
            findings.append((rel, lineno, rule, raw.strip()))
    return findings


def collect_sources(roots):
    exts = (".cc", ".h", ".cpp", ".hpp")
    for root in roots:
        if os.path.isfile(root):
            yield root
            continue
        for dirpath, _dirnames, filenames in os.walk(root):
            for name in sorted(filenames):
                if name.endswith(exts):
                    yield os.path.join(dirpath, name)


def run_lint(roots, allowlist):
    findings = []
    for path in collect_sources(roots):
        rel = os.path.relpath(os.path.abspath(path), REPO_ROOT)
        rel = rel.replace(os.sep, "/")
        findings.extend(lint_file(path, rel, allowlist))
    return findings


def self_test(fixture_dir, allowlist):
    """bad_<rule>*.cc must trip exactly <rule>; good_*.cc stay clean."""
    failures = []
    fixtures = sorted(collect_sources([fixture_dir]))
    if not fixtures:
        sys.stderr.write(
            "determinism_lint: no fixtures under %s\n" % fixture_dir
        )
        return 2
    for path in fixtures:
        name = os.path.basename(path)
        rel = os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
        found = {rule for _, _, rule, _ in lint_file(path, rel, allowlist)}
        if name.startswith("bad_"):
            stem = name[len("bad_"):].rsplit(".", 1)[0]
            expected = stem.replace("_", "-")
            # bad_raw_rand_2.cc style numbering shares the base rule.
            expected = re.sub(r"-\d+$", "", expected)
            if expected not in found:
                failures.append(
                    "%s: expected rule %r, got %s"
                    % (name, expected, sorted(found) or "nothing")
                )
        elif name.startswith("good_"):
            if found:
                failures.append(
                    "%s: expected clean, got %s" % (name, sorted(found))
                )
        else:
            failures.append(
                "%s: fixture must be named bad_<rule>*.cc or good_*.cc"
                % name
            )
    if failures:
        for f in failures:
            sys.stderr.write("determinism_lint self-test FAIL: %s\n" % f)
        return 1
    print("determinism_lint self-test: %d fixtures OK" % len(fixtures))
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="ban nondeterminism-prone patterns in src/"
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src/)",
    )
    parser.add_argument(
        "--allowlist",
        default=os.path.join(REPO_ROOT, "tools", "analysis_allow.txt"),
        help="path:rule waiver file shared with exist_analyzer",
    )
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="verify the rules against tools/lint_fixtures/",
    )
    parser.add_argument(
        "--defer-to-analyzer",
        action="store_true",
        help="report AST-superseded rules (%s) as warnings only; "
        "tools/analyzer/exist_analyzer.py is their gate"
        % ", ".join(sorted(ANALYZER_SUPERSEDED)),
    )
    args = parser.parse_args(argv)

    allowlist = load_allowlist(args.allowlist)
    if args.self_test:
        return self_test(
            os.path.join(REPO_ROOT, "tools", "lint_fixtures"), allowlist
        )

    roots = args.paths or [os.path.join(REPO_ROOT, "src")]
    for root in roots:
        if not os.path.exists(root):
            sys.stderr.write(
                "determinism_lint: no such path: %s\n" % root
            )
            return 2
    findings = run_lint(roots, allowlist)
    hard = []
    for rel, lineno, rule, line in findings:
        if args.defer_to_analyzer and rule in ANALYZER_SUPERSEDED:
            print(
                "%s:%d: [%s] (warning; exist-analyzer is the gate) %s"
                % (rel, lineno, rule, line)
            )
        else:
            hard.append((rel, lineno, rule, line))
            print("%s:%d: [%s] %s" % (rel, lineno, rule, line))
    if hard:
        sys.stderr.write(
            "determinism_lint: %d finding(s); fix them, add an inline "
            "`// lint-allow: <rule>` with a justification, or extend "
            "tools/analysis_allow.txt\n" % len(hard)
        )
        return 1
    print("determinism_lint: clean (%s)" % ", ".join(roots))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
