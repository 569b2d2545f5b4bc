"""Metric derivation for the trace-request benchmark.

Pure functions over the raw record that ``trace_request_bench`` prints
and the span file its traced run writes; ``run.py`` calls them, and
``test_perfbench.py`` pins their rules. Run as a script to print the
per-layer self times of a span file:

    python3 perfbench/metrics.py SPANS.json
"""

import json
import math
import re
import statistics
import sys

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")

# Spans that re-run work outside the request the control plane would
# serve: the Oracle run (substrate), the EXIST run without decode or
# ground truth (trace), and the batch re-decode of the kept traces.
PROBE_SPANS = ("substrate", "trace", "decode")

# Per-layer counts that are a pure function of the seed (simulated
# work, bytes written); run.py checks them across runs of one seed.
EXACT_LAYER_METRICS = (
    "substrate.context_switches_per_session",
    "trace.kb_per_session",
    "trace.dropped_pct",
    "core.control_ops_per_session",
    "core.msr_writes_per_session",
    "collect.retransmit_pct",
    "collect.degraded_sessions",
    "collect.wire_kb_per_request",
    "wal.kb_per_request",
    "snapshot.mb",
    "recovery.replayed_records",
)
EXACT_END_TO_END = (
    "target_slowdown_permille",
    "report_accuracy_pct",
    "stored_kb_per_request",
)


def nearest_rank(samples, pct):
    """1-based nearest rank of the pct-th percentile of n samples."""
    return max(1, math.ceil(pct / 100.0 * len(samples)))


def percentile(samples, pct, min_beyond=10):
    """Nearest-rank percentile that has at least ``min_beyond`` samples
    beyond it. Returns (value, sample count); raises ValueError when
    the sample cannot support that percentile."""
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    rank = nearest_rank(samples, pct)
    if n - rank < min_beyond:
        raise ValueError(
            "p%g of %d samples has %d beyond it, need %d"
            % (pct, n, n - rank, min_beyond))
    return sorted(samples)[rank - 1], n


def tail_percentile(samples, ladder=(99.9, 99, 95, 90, 75, 50),
                    min_beyond=10):
    """The highest percentile of ``ladder`` with at least ``min_beyond``
    samples beyond it, as (percentile, value, sample count), or None
    when even the lowest rung lacks them."""
    n = len(samples)
    for pct in sorted(ladder, reverse=True):
        if n and n - nearest_rank(samples, pct) >= min_beyond:
            return pct, sorted(samples)[nearest_rank(samples, pct) - 1], n
    return None


def union_length(intervals):
    """Total length covered by (start, end) intervals; overlaps count
    once."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Self time (ns) of every span, keyed by span id: its duration
    minus the part of its interval that the union of its children
    covers."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start_ns"], s["end_ns"]
        covered = union_length(
            (max(c["start_ns"], start), min(c["end_ns"], end))
            for c in children.get(s["id"], ())
            if c["end_ns"] > start and c["start_ns"] < end)
        out[s["id"]] = (end - start) - covered
    return out


def layer_table(spans):
    """Per span name: (count, total duration ms, total self ms)."""
    selfs = self_times(spans)
    table = {}
    for s in spans:
        count, dur, own = table.get(s["name"], (0, 0.0, 0.0))
        table[s["name"]] = (count + 1,
                            dur + (s["end_ns"] - s["start_ns"]) / 1e6,
                            own + selfs[s["id"]] / 1e6)
    return table


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(raw, setup_samples):
    """End-to-end metrics of an untraced (--trace 0) record."""
    latency = raw["latency_ms"]
    completed = raw["completed"]
    p50, _ = percentile(latency, 50)
    p90, _ = percentile(latency, 90)
    return {
        "requests_per_s": completed / raw["loop_s"],
        "latency_p50_ms": p50,
        "latency_p90_ms": p90,
        "cpu_ms_per_request": raw["cpu_s"] * 1e3 / completed,
        "completed_pct": 100.0 * completed / raw["attempted"],
        "setup_s": _median(setup_samples),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "target_slowdown_permille": raw["target_slowdown_permille"],
        "report_accuracy_pct": raw["report_accuracy_pct"],
        "stored_kb_per_request": raw["stored_kb_per_request"],
        "recovery_s": _median(raw["recovery_s"]),
    }


def per_layer(raw, spans):
    """Per-layer metrics of a traced (--trace 1) record and its spans."""
    table = layer_table(spans)

    def dur(name):
        return table.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return table.get(name, (0, 0.0, 0.0))[2]

    roots = [s for s in spans if s["name"] == "request"]
    nreq = len(roots)
    sessions = raw["sessions"]
    nses = len(sessions)
    requests = raw["requests"]

    def ses_sum(key):
        return sum(s[key] for s in sessions)

    def req_sum(key):
        return sum(r[key] for r in requests)

    root_ms = sum(s["end_ns"] - s["start_ns"] for s in roots) / 1e6
    selfs = self_times(spans)
    root_self_ms = sum(selfs[s["id"]] for s in roots) / 1e6
    probes_ms = sum(dur(n) for n in PROBE_SPANS)
    report_latency_ms = ses_sum("report_latency_s") * 1e3
    trace_bytes = ses_sum("trace_bytes")
    dropped = ses_sum("dropped_bytes")
    memo = ses_sum("memo_hits") + ses_sum("memo_misses")
    batches = req_sum("batches_sent")
    snapshot_ms = raw["snapshot_ms"]
    snapshot_mb = raw["snapshot_mb"]
    return {
        "substrate.ms_per_request": dur("substrate") / nreq,
        "substrate.context_switches_per_session":
            ses_sum("context_switches") / nses,
        "trace.self_ms_per_request":
            (dur("trace") - dur("substrate")) / nreq,
        "trace.kb_per_session": trace_bytes / 1024.0 / nses,
        "trace.dropped_pct":
            100.0 * dropped / (trace_bytes + dropped)
            if trace_bytes + dropped else 0.0,
        "core.control_ops_per_session": ses_sum("control_ops") / nses,
        "core.msr_writes_per_session": ses_sum("msr_writes") / nses,
        "analysis.truth_self_ms_per_request":
            (dur("session.full") - dur("trace") - report_latency_ms) / nreq,
        "decode.ms_per_request": dur("decode") / nreq,
        "decode.mb_per_s":
            ses_sum("raw_bytes") / 1e6 / (dur("decode") / 1e3)
            if dur("decode") else 0.0,
        "decode.memo_hit_pct":
            100.0 * ses_sum("memo_hits") / memo if memo else 0.0,
        "decode.report_latency_ms": report_latency_ms / nses,
        "collect.ms_per_request":
            dur("collect") / nreq if req_sum("collect_ran") else 0.0,
        "collect.retransmit_pct":
            100.0 * req_sum("retransmits") / batches if batches else 0.0,
        "collect.degraded_sessions": req_sum("degraded_sessions"),
        "collect.wire_kb_per_request": req_sum("wire_bytes") / 1024.0 / nreq,
        "cluster.admit_us": own("cluster.admit") * 1e3 / nreq,
        "cluster.plan_us": own("cluster.plan") * 1e3 / nreq,
        "cluster.publish_us": own("cluster.publish") * 1e3 / nreq,
        "wal.append_us_per_request": dur("wal.append") * 1e3 / nreq,
        "wal.kb_per_request": raw["wal_bytes"] / 1024.0 / nreq,
        "snapshot.ms": _median(snapshot_ms),
        "snapshot.mb": max(snapshot_mb) if snapshot_mb else 0.0,
        "recovery.replayed_records": raw["recovery_records"],
        "pipeline.ms_per_request":
            (root_ms - probes_ms - dur("substrate")) / nreq,
        "breakdown.coverage_pct":
            100.0 * (root_ms - root_self_ms) / root_ms if root_ms else 0.0,
    }


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as f:
        spans = json.load(f)
    nreq = sum(1 for s in spans if s["name"] == "request") or 1
    print("%-16s %7s %14s %14s" % ("span", "count", "ms/request",
                                   "self ms/req"))
    for name, (count, dur, own) in sorted(layer_table(spans).items()):
        print("%-16s %7d %14.3f %14.3f" % (name, count, dur / nreq,
                                            own / nreq))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
