"""Tests of the benchmark's own rules (no build needed):

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import sys
import unittest
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402


def span(sid, parent, name, start, end, rid=1):
    return {"id": sid, "parent": parent, "name": name, "rid": rid,
            "start_ns": start, "end_ns": end}


class PercentileRule(unittest.TestCase):
    def test_nearest_rank_with_sample_count(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        self.assertEqual(metrics.percentile(samples, 90), (90, 100))
        self.assertEqual(metrics.percentile(samples, 50), (50, 100))

    def test_p90_needs_ten_samples_beyond_it(self):
        with self.assertRaises(ValueError):
            metrics.percentile(list(range(99)), 90)
        value, count = metrics.percentile(list(range(101)), 90)
        self.assertEqual(count, 101)
        self.assertEqual(value, 90)  # rank 91 of 0..100, ten beyond

    def test_tail_is_highest_rung_with_ten_beyond(self):
        self.assertEqual(metrics.tail_percentile(list(range(1, 1001))),
                         (99, 990, 1000))
        self.assertEqual(metrics.tail_percentile(list(range(1, 101))),
                         (90, 90, 100))
        self.assertEqual(metrics.tail_percentile(list(range(1, 100))),
                         (75, 75, 99))
        self.assertIsNone(metrics.tail_percentile(list(range(19))))
        self.assertIsNone(metrics.tail_percentile([]))


class SelfTime(unittest.TestCase):
    def test_children_subtracted_and_overlap_counted_once(self):
        spans = [
            span(1, 0, "request", 0, 100),
            span(2, 1, "a", 10, 30),
            span(3, 1, "b", 20, 50),  # overlaps a by 10
            span(4, 1, "c", 60, 70),
            span(5, 4, "d", 62, 64),
        ]
        selfs = metrics.self_times(spans)
        self.assertEqual(selfs[1], 100 - 40 - 10)
        self.assertEqual(selfs[2], 20)
        self.assertEqual(selfs[4], 10 - 2)
        self.assertEqual(selfs[5], 2)

    def test_child_clipped_to_parent_interval(self):
        spans = [span(1, 0, "p", 10, 20), span(2, 1, "c", 5, 15),
                 span(3, 1, "late", 25, 30)]
        self.assertEqual(metrics.self_times(spans)[1], 5)

    def test_union_length(self):
        self.assertEqual(metrics.union_length([]), 0)
        self.assertEqual(metrics.union_length([(0, 5), (5, 7), (8, 9)]), 8)
        self.assertEqual(metrics.union_length([(0, 10), (2, 3)]), 10)

    def test_layer_table_sums_by_name(self):
        spans = [span(1, 0, "request", 0, 4_000_000),
                 span(2, 1, "wal.append", 0, 1_000_000),
                 span(3, 1, "wal.append", 2_000_000, 3_000_000)]
        table = metrics.layer_table(spans)
        self.assertEqual(table["wal.append"], (2, 2.0, 2.0))
        self.assertEqual(table["request"], (1, 4.0, 2.0))


def synthetic_raw():
    """A minimal traced + untraced record in trace_request_bench's form."""
    session = {"rid": 1, "context_switches": 10, "trace_bytes": 2048,
               "dropped_bytes": 0, "control_ops": 5, "msr_writes": 7,
               "raw_bytes": 4096, "memo_hits": 3, "memo_misses": 1,
               "report_latency_s": 0.001}
    request = {"rid": 1, "collect_ran": 1, "degraded_sessions": 0,
               "batches_sent": 4, "retransmits": 1, "wire_bytes": 8192}
    return {
        "latency_ms": [float(i) for i in range(1, 121)],
        "completed": 120, "attempted": 120, "loop_s": 12.0, "cpu_s": 11.0,
        "peak_rss_kb": 40960, "target_slowdown_permille": 4.0,
        "report_accuracy_pct": 99.9, "stored_kb_per_request": 180.0,
        "recovery_s": [0.01, 0.012, 0.011],
        "sessions": [session], "requests": [request], "wal_bytes": 1024,
        "snapshot_ms": [1.0, 2.0], "snapshot_mb": [0.5, 1.0],
        "recovery_records": 12,
    }


def synthetic_spans():
    names = ["cluster.admit", "cluster.plan", "session", "collect",
             "cluster.publish"]
    spans = [span(1, 0, "request", 0, 10_000_000)]
    for i, name in enumerate(names):
        spans.append(span(i + 2, 1, name, i * 1_000_000,
                          (i + 1) * 1_000_000))
    for j, name in enumerate(["substrate", "trace", "session.full",
                              "decode"]):
        spans.append(span(20 + j, 4, name, 2_000_000 + j * 200_000,
                          2_000_000 + (j + 1) * 200_000))
    return spans


class DeclaredMetrics(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(HERE.parent / "BENCHMARK.json") as f:
            cls.spec = json.load(f)

    def check(self, produced, declared):
        for name in produced:
            self.assertRegex(name, metrics.NAME_RE)
            self.assertIn(name, declared, "%s not in BENCHMARK.json" % name)
            self.assertTrue(declared[name]["unit"])
            self.assertIn(declared[name]["better"], ("higher", "lower"))
        self.assertEqual(set(produced), set(declared))

    def test_end_to_end_names_declared(self):
        declared = {m["name"]: m for m in self.spec["end_to_end"]}
        self.check(metrics.end_to_end(synthetic_raw(), [1.0, 2.0, 3.0]),
                   declared)

    def test_per_layer_names_declared(self):
        declared = {m["name"]: m for m in self.spec["per_layer"]}
        values = metrics.per_layer(synthetic_raw(), synthetic_spans())
        self.check(values, declared)
        self.assertGreater(values["breakdown.coverage_pct"], 0)

    def test_exact_metrics_are_declared(self):
        e2e = {m["name"] for m in self.spec["end_to_end"]}
        layer = {m["name"] for m in self.spec["per_layer"]}
        self.assertLessEqual(set(metrics.EXACT_END_TO_END), e2e)
        self.assertLessEqual(set(metrics.EXACT_LAYER_METRICS), layer)

    def test_setup_bound_is_largest(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])
        self.assertLessEqual(max(bounds.values()), 0.25)


if __name__ == "__main__":
    unittest.main()
