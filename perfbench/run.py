#!/usr/bin/env python3
"""Trace-request benchmark: build, run, derive metrics, gate.

    python3 perfbench/run.py --workload service_net --seed 1 \
        --seconds 25 --trace 0

Builds perfbench/ (and the EXIST libraries it links) in Release into
$CARGO_TARGET_DIR (default .bench_build), runs the closed-loop load
generator, and prints, as the last line of stdout, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer
metrics of the traced run. The line before it stamps the environment.

Exits non-zero (after printing the result with "correct": false) when
any correctness gate fails: a request not Completed, a ShardedMaster
report differing from the layer-by-layer drive, recovered reports
differing from the live ones, or an exact metric differing from an
earlier run of the same seed and binary.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

# Set-up lasts well under a second, so one sample sees one phase of the
# host's speed swings: it is measured in fresh processes (cold decode
# caches) before and after the main run as well as in the main run.
SETUP_SAMPLES_BEFORE = 3
SETUP_SAMPLES_AFTER = 3
# time allowed for the runs after the build
DEADLINE_S = 170.0


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("no EXIST sources next to perfbench/ (expected src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j", jobs,
                  "--target", "trace_request_bench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return bdir / "trace_request_bench"


def run_binary(binary, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + " ".join(args))
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail("trace_request_bench ran out of time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("trace_request_bench exited %d" % proc.returncode)
    return json.loads(lines[-1])


def declared_units(spec):
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def git_describe():
    try:
        proc = subprocess.run(["git", "describe", "--always", "--dirty"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except OSError:
        return "unavailable"
    out = proc.stdout.strip()
    return out if proc.returncode == 0 and out else "unavailable"


def check_exact(bdir, binary, raw, values, names, failures):
    """Compare exact values with earlier runs of this seed and binary."""
    digest = hashlib.sha256(binary.read_bytes()).hexdigest()[:16]
    store = bdir / "perfbench-exact"
    store.mkdir(exist_ok=True)
    path = store / ("%s-s%d-%s.json" % (raw["workload"], raw["seed"],
                                         digest))
    record = {n: values[n] for n in names}
    record["report_digest"] = raw["report_digest"]
    old = {}
    if path.is_file():
        with open(path) as f:
            old = json.load(f)
    for key, value in record.items():
        if key in old and old[key] != value:
            failures.append("exact value %s changed between runs of seed "
                            "%d: %r then %r" % (key, raw["seed"], old[key],
                                                value))
    old.update(record)
    with open(path, "w") as f:
        json.dump(old, f, indent=1, sort_keys=True)


def main():
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    e2e_units, layer_units = declared_units(spec)
    bdir = build_dir()
    binary = build(bdir)
    deadline = time.monotonic() + DEADLINE_S
    out_dir = bdir / "perfbench-runs"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--out-dir", str(out_dir)]

    def setup_sample():
        return run_binary(binary, common + ["--setup-only"],
                          deadline)["setup_s"]

    setup = [setup_sample() for _ in range(SETUP_SAMPLES_BEFORE)]
    raw = run_binary(binary, common + ["--seconds", str(args.seconds),
                                       "--trace", str(args.trace)],
                     deadline)
    setup.append(raw["setup_s"])
    setup += [setup_sample() for _ in range(SETUP_SAMPLES_AFTER)]
    failures = list(raw["failures"])

    if args.trace == 0:
        values = metrics.end_to_end(raw, setup)
        units = e2e_units
        exact = metrics.EXACT_END_TO_END
    else:
        spans_file = Path(raw["spans_file"])
        with open(spans_file) as f:
            spans = json.load(f)
        values = metrics.per_layer(raw, spans)
        units = layer_units
        exact = metrics.EXACT_LAYER_METRICS
        # a traced run serves the same exact epochs as an untraced one
        check_exact(bdir, binary, raw, raw, metrics.EXACT_END_TO_END,
                    failures)
    check_exact(bdir, binary, raw, values, exact, failures)

    if set(values) != set(units):
        fail("metric names differ from BENCHMARK.json: %s"
             % sorted(set(values) ^ set(units)))

    tail = metrics.tail_percentile(raw.get("latency_ms", []))
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "shards": raw["shards"],
        "threads": raw["threads"],
        "nproc": os.cpu_count(),
        "build_type": raw["build_type"],
        "compiler": raw["compiler"],
        "git_describe": git_describe(),
        "manifest": raw["manifest"],
        "setup_s_samples": setup,
        "latency_tail": tail,
    }
    print("perfbench env " + json.dumps(env, sort_keys=True))
    for msg in failures:
        print("perfbench FAIL " + msg)

    attempted = raw["attempted"]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": attempted - raw["completed"],
        "metrics": {n: {"value": values[n], "unit": units[n]}
                    for n in sorted(values)},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
