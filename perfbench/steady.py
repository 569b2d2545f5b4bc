#!/usr/bin/env python3
"""Steadiness check for the trace-request benchmark.

Runs each workload as two sets of runs, one run per seed, through
run.py, then prints per end-to-end metric each set's median and
quartile spread (IQR over median) and the signed set-to-set change of
the median, next to the bound declared in BENCHMARK.json. Exact
metrics must read the same for one seed in both sets; any difference
is flagged. Exits 1 if a run failed, a spread or the size of a
set-to-set change (in either direction) exceeds its bound, or an exact
metric differs.

    python3 perfbench/steady.py --seeds 10 --workloads durable_churn
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 or not result or not result["correct"]:
        print("run failed: %s seed %d (exit %d)" % (workload, seed,
                                                    proc.returncode))
        return None
    return {n: m["value"] for n, m in result["metrics"].items()}


def run_set(workload, seeds, seconds):
    runs = {}
    for seed in seeds:
        values = run_once(workload, seed, seconds)
        if values is not None:
            runs[seed] = values
    return runs


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def change(first, second):
    """Signed change of ``second`` relative to ``first``."""
    if first == 0:
        return 0.0 if second == first else float("inf")
    return (second - first) / abs(first)


def report(workload, sets, spec):
    ok = True
    print("\n== %s: 2 sets x %d seeds" % (workload, len(sets[0])))
    print("%-26s %12s %12s %8s %8s %8s %7s" % (
        "metric", "median A", "median B", "IQR A", "IQR B", "B vs A",
        "bound"))
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        cols = [[run[name] for run in s.values()] for s in sets]
        meds = [statistics.median(c) for c in cols]
        spreads = [spread(c) for c in cols]
        delta = change(meds[0], meds[1])
        bad, warn = [], []
        if max(spreads) > bound:
            bad.append("SPREAD>bound")
        elif max(spreads) > bound / 3:
            warn.append("spread>bound/3")
        if abs(delta) > bound:
            bad.append("DELTA>bound")
        if name in metrics.EXACT_END_TO_END:
            for seed in sets[0]:
                if len({s[seed][name] for s in sets if seed in s}) > 1:
                    bad.append("EXACT-differs@seed%d" % seed)
        ok = ok and not bad
        print("%-26s %12.6g %12.6g %7.2f%% %7.2f%% %+7.2f%% %7.2f %s" % (
            name, meds[0], meds[1], 100 * spreads[0], 100 * spreads[1],
            100 * delta, bound, " ".join(bad + warn)))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="",
                    help="comma list (default: every BENCHMARK.json "
                         "workload)")
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--save", help="write every run's metrics here")
    ap.add_argument("--load", help="report on a --save file, run nothing")
    args = ap.parse_args()

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = ([w for w in args.workloads.split(",") if w] or
                 [w["name"] for w in spec["workloads"]])
    seeds = range(1, args.seeds + 1)

    ok = True
    saved = {}
    loaded = {}
    if args.load:
        with open(args.load) as f:
            loaded = json.load(f)
        workloads = [w for w in workloads if w in loaded]
    for workload in workloads:
        if workload in loaded:
            sets = [{int(k): v for k, v in s.items()}
                    for s in loaded[workload]]
        else:
            sets = [run_set(workload, seeds, seconds) for _ in range(2)]
            ok = ok and all(len(s) == len(seeds) for s in sets)
        saved[workload] = [{str(k): v for k, v in s.items()} for s in sets]
        if all(len(s) >= 4 for s in sets):
            ok = report(workload, sets, spec) and ok
        else:
            ok = False
        if args.save:
            with open(args.save, "w") as f:
                json.dump(saved, f, indent=1)
    print("\nsteady: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
