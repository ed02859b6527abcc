#!/usr/bin/env python3
"""Self-test of the benchmark's bookkeeping: percentiles, the tail rule,
error rate, the result line, and the trace checks (parsing, nesting, self
time). Needs no build:

    python3 perfbench/test_metrics.py

With --trace FILE it also checks a Chrome trace the benchmark wrote
(parses, spans nest, every layer span present)."""

import json
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import metrics  # noqa: E402


def span(name, start, end, sid, parent=0, op=0, **args):
    return {"name": name, "start": start, "end": end, "id": sid,
            "parent": parent, "op": op, "args": args}


class PercentileTest(unittest.TestCase):

    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(metrics.percentile(values, 0.5), 50)
        self.assertEqual(metrics.percentile(values, 0.9), 90)
        self.assertEqual(metrics.percentile(values, 0.99), 99)
        self.assertEqual(metrics.percentile(values, 1.0), 100)
        self.assertEqual(metrics.percentile([7.0], 0.99), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(metrics.percentile([5, 1, 4, 2, 3], 0.6), 3)

    def test_median_of_even_count_interpolates(self):
        self.assertEqual(metrics.median([1.0, 2.0, 3.0, 10.0]), 2.5)


class TailRuleTest(unittest.TestCase):

    def test_beyond_counts_samples_above_the_percentile(self):
        self.assertEqual(metrics.beyond(100, 0.9), 10)
        self.assertEqual(metrics.beyond(1000, 0.99), 10)
        self.assertEqual(metrics.beyond(999, 0.99), 9)

    def test_keeps_wanted_percentile_with_ten_beyond(self):
        self.assertEqual(metrics.tail_percentile(100, 0.90), 0.90)
        self.assertEqual(metrics.tail_percentile(1250, 0.99), 0.99)

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        # 60 samples: p83 leaves 10 above it, p84 only 9.
        self.assertEqual(metrics.tail_percentile(60, 0.90), 0.83)
        self.assertGreaterEqual(metrics.beyond(60, 0.83), 10)
        self.assertLess(metrics.beyond(60, 0.84), 10)

    def test_too_few_samples_have_no_tail(self):
        self.assertIsNone(metrics.tail_percentile(10, 0.9))


class EndToEndTest(unittest.TestCase):

    def raw(self, ops, attempted, failed):
        return {
            "series": {"op_ms": ops, "setup_s": [0.3, 0.5, 0.4],
                       "train_s": [1.0, 2.0], "refresh_ms": [4.0],
                       "peak_rss_mib": [99.5, 90.0, 120.0]},
            "scalars": {"attempted": attempted, "failed": failed,
                        "ok_ops": attempted - failed, "measured_seconds": 2.0},
        }

    def test_error_rate(self):
        self.assertEqual(metrics.error_rate(200, 3), 0.015)
        self.assertEqual(metrics.error_rate(0, 0), 1.0)

    def test_metrics_and_success_rate(self):
        ops = [float(i) for i in range(1, 101)]
        values, notes = metrics.end_to_end("cov-4t", self.raw(ops, 100, 4))
        self.assertEqual(values["op_ms_p50"], 50.5)
        self.assertEqual(values["op_ms_tail"], 90.0)
        self.assertEqual(values["setup_s"], 0.4)
        self.assertEqual(values["train_s"], 1.5)
        self.assertEqual(values["ops_per_s"], 48.0)
        self.assertEqual(values["peak_rss_mib"], 120.0)  # the largest process
        self.assertAlmostEqual(values["success_rate"], 0.96)
        self.assertEqual(set(values), {n for n, _ in metrics.END_TO_END})
        self.assertTrue(any("error_rate 0.04" in n for n in notes))

    def test_short_run_reports_the_fallback(self):
        ops = [float(i) for i in range(1, 61)]
        values, notes = metrics.end_to_end("cov-4t", self.raw(ops, 60, 0))
        self.assertEqual(values["op_ms_tail"], 50.0)  # p83 of 1..60
        self.assertTrue(any("fell back" in n for n in notes))


class MergeTest(unittest.TestCase):

    def test_pools_series_adds_counts_and_keeps_maxima(self):
        a = {"series": {"op_ms": [1.0, 2.0]},
             "scalars": {"attempted": 3, "exec.bitdiff_queries": 5}}
        b = {"series": {"op_ms": [3.0], "setup_s": [0.5]},
             "scalars": {"attempted": 4, "exec.bitdiff_queries": 2,
                         "failed": 1}}
        merged = metrics.merge_raw([a, b])
        self.assertEqual(merged["series"],
                         {"op_ms": [1.0, 2.0, 3.0], "setup_s": [0.5]})
        self.assertEqual(merged["scalars"],
                         {"attempted": 7, "exec.bitdiff_queries": 5,
                          "failed": 1})


class ResultLineTest(unittest.TestCase):

    def test_format(self):
        line = metrics.result_line(True, 12, 1, {"op_ms_p50": (1.25, "ms")})
        doc = json.loads(line)
        self.assertEqual(list(doc), ["correct", "attempted", "failed",
                                     "metrics"])
        self.assertIs(doc["correct"], True)
        self.assertEqual(doc["attempted"], 12)
        self.assertEqual(doc["failed"], 1)
        self.assertEqual(doc["metrics"],
                         {"op_ms_p50": {"value": 1.25, "unit": "ms"}})
        self.assertNotIn("\n", line)

    def test_per_layer_names_are_unique_and_valid(self):
        names = [n for n, _ in metrics.per_layer_names()]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertLessEqual(len(name), 64)
            self.assertIn(metrics.layer_of(name),
                          metrics.LAYERS + ("trace",))


BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


@unittest.skipUnless(os.path.isfile(BENCHMARK_JSON), "no BENCHMARK.json")
class BenchmarkJsonTest(unittest.TestCase):
    """BENCHMARK.json lists exactly the metrics and workloads run.py
    prints."""

    def setUp(self):
        with open(BENCHMARK_JSON) as f:
            self.doc = json.load(f)

    def test_metrics_match(self):
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.doc["end_to_end"]],
            metrics.END_TO_END)
        self.assertEqual(
            [(m["name"], m["unit"]) for m in self.doc["per_layer"]],
            metrics.per_layer_names())

    def test_workloads_match(self):
        for w in self.doc["workloads"]:
            self.assertIn(w["name"], metrics.WORKLOADS)
        for w in self.doc["workloads"]:
            self.assertIn("Tail p%g" % (metrics.TAIL[w["name"]] * 100),
                          w["why"])


class TraceTest(unittest.TestCase):

    def test_nesting(self):
        good = [span("op", 0.0, 10.0, 1),
                span("exec.execute", 1.0, 8.0, 2, parent=1),
                span("storage.sort", 2.0, 3.0, 3, parent=2)]
        self.assertEqual(metrics.nesting_problems(good), [])
        escaped = good + [span("ml.bgd", 9.0, 12.0, 4, parent=1)]
        self.assertEqual(len(metrics.nesting_problems(escaped)), 1)
        orphan = good + [span("ml.bgd", 9.0, 9.5, 5, parent=42)]
        self.assertEqual(len(metrics.nesting_problems(orphan)), 1)

    def test_self_time(self):
        spans = [span("op", 0.0, 10.0, 1),
                 span("exec.execute", 1.0, 8.0, 2, parent=1),
                 span("storage.sort", 2.0, 3.0, 3, parent=2),
                 span("ml.bgd", 8.0, 9.0, 4, parent=1),
                 # Outside measured operations: ignored.
                 span("query.parse", 20.0, 30.0, 5, op=-1)]
        totals, root_ms = metrics.self_times(spans)
        self.assertEqual(root_ms, 10.0)
        self.assertEqual(totals, {"op": 2.0, "exec": 6.0, "storage": 1.0,
                                  "ml": 1.0})

    def test_parse_chrome_trace(self):
        doc = {"traceEvents": [
            {"name": "exec.execute", "cat": "exec", "ph": "X", "pid": 1,
             "tid": 3, "ts": 1000.0, "dur": 500.0,
             "args": {"id": 2, "parent": 1, "op": 0, "views": 12}}]}
        with tempfile.NamedTemporaryFile("w", suffix=".json",
                                         delete=False) as f:
            json.dump(doc, f)
        try:
            spans = metrics.parse_trace(f.name)
        finally:
            os.remove(f.name)
        self.assertEqual(spans, [span("exec.execute", 1.0, 1.5, 2, parent=1,
                                      views=12)])


def check_trace_file(path):
    """Checks a trace the benchmark wrote; returns a list of problems."""
    spans = metrics.parse_trace(path)
    problems = metrics.nesting_problems(spans)
    names = {s["name"] for s in spans}
    for _, (span_name, _, _, _) in metrics.SPAN_METRICS.items():
        if span_name not in names:
            problems.append("no %s span" % span_name)
    return problems


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--trace":
        found = check_trace_file(sys.argv[2])
        print("\n".join(found) if found else "trace OK")
        sys.exit(1 if found else 0)
    unittest.main()
