"""Tests of the fleet benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import os
import statistics
import unittest

import benchstats


def span(sid, parent, name, start, end):
    return {"round": 1, "id": sid, "parent": parent, "name": name,
            "start_us": start, "end_us": end}


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchstats.nearest_rank(values, 0.5), 50)
        self.assertEqual(benchstats.nearest_rank(values, 0.9), 90)
        self.assertEqual(benchstats.nearest_rank(values, 1.0), 100)
        self.assertEqual(benchstats.nearest_rank(values, 0.001), 1)

    def test_nearest_rank_is_a_sample_and_order_free(self):
        values = [0.3, 0.1, 0.2, 0.5, 0.4]
        self.assertEqual(benchstats.nearest_rank(values, 0.5), 0.3)
        self.assertEqual(benchstats.nearest_rank(values, 0.9), 0.5)
        self.assertEqual(benchstats.nearest_rank(values, 0.8), 0.4)

    def test_nearest_rank_rejects_bad_input(self):
        with self.assertRaises(ValueError):
            benchstats.nearest_rank([], 0.5)
        with self.assertRaises(ValueError):
            benchstats.nearest_rank([1.0], 0.0)

    def test_ten_beyond_p90(self):
        # 100 samples: p90 is rank 90, ten lie beyond it.
        self.assertEqual(benchstats.samples_beyond(100, 0.9), 10)
        self.assertTrue(benchstats.tail_supported(100))
        self.assertFalse(benchstats.tail_supported(99))
        self.assertTrue(benchstats.tail_supported(110))
        self.assertFalse(benchstats.tail_supported(0))


class SpanTest(unittest.TestCase):
    def test_self_time_with_overlapping_children(self):
        root = span(1, 0, "round", 0, 100)
        children = [span(2, 1, "a", 10, 40), span(3, 1, "b", 30, 60),
                    span(4, 1, "c", 90, 130)]  # c runs past the root: clipped
        # Covered: [10, 60) and [90, 100) = 60, so 40 is the root's own.
        _shares, unattributed = benchstats.attribute(root, children)
        self.assertEqual(unattributed, 40)

    def test_attribution_splits_overlap_and_sums_to_root(self):
        root = span(1, 0, "round", 0, 100)
        children = [span(2, 1, "a", 10, 40), span(3, 1, "b", 30, 60),
                    span(5, 1, "a", 95, 140), span(6, 1, "late", 150, 160)]
        shares, unattributed = benchstats.attribute(root, children)
        # [30, 40) is shared by a and b; a also owns [95, 100).
        self.assertAlmostEqual(shares["a"], 20 + 5 + 5)
        self.assertAlmostEqual(shares["b"], 5 + 20)
        self.assertNotIn("late", shares)
        self.assertAlmostEqual(unattributed, 10 + 35)
        self.assertAlmostEqual(sum(shares.values()) + unattributed, 100)

    def test_layer_times_over_rounds(self):
        spans = [span(1, 0, "round", 0, 100), span(2, 1, "x", 0, 50),
                 span(3, 0, "round", 200, 260), span(4, 3, "x", 210, 220),
                 span(5, 3, "y", 215, 240), span(6, 0, "orphan", 0, 1000)]
        totals, self_us, root_us, rounds = benchstats.layer_times(spans)
        self.assertEqual(rounds, 2)
        self.assertEqual(root_us, 160)
        self.assertAlmostEqual(totals["x"], 50 + 5 + 2.5)
        self.assertAlmostEqual(totals["y"], 2.5 + 20)
        self.assertAlmostEqual(self_us, 50 + 10 + 20)
        self.assertAlmostEqual(sum(totals.values()) + self_us, root_us)

    def test_printed_span_metrics_account_for_the_rounds(self):
        spans = [span(1, 0, "round", 0, 1000), span(2, 1, "engine.submit", 0, 100),
                 span(3, 1, "transport.fwd.h0", 100, 400), span(4, 1, "dist.publish", 900, 950)]
        metrics, root_us, rounds = benchstats.span_metrics(spans)
        self.assertAlmostEqual(metrics["engine.submit_block_ms"], 0.1)
        self.assertAlmostEqual(metrics["transport.fwd_ms.h0"], 0.3)
        self.assertAlmostEqual(metrics["engine.self_ms"], 0.55)
        self.assertAlmostEqual(benchstats.unreported_share(metrics, root_us, rounds), 0)

    def test_span_without_a_metric_is_unreported(self):
        spans = [span(1, 0, "round", 0, 1000), span(2, 1, "transport.fwd.h0", 0, 400),
                 span(3, 1, "client.prepare", 400, 600)]
        metrics, root_us, rounds = benchstats.span_metrics(spans)
        self.assertAlmostEqual(benchstats.unreported_share(metrics, root_us, rounds), 0.2)
        self.assertEqual(benchstats.unreported_share(metrics, 0, 0), 1.0)


class FailRatioTest(unittest.TestCase):
    def raw(self, **kw):
        base = {"rounds_failed": 0, "fetches_failed": 0, "probe_missing": 0,
                "rounds_attempted": 100, "fetches_attempted": 0, "probe_expected": 0}
        base.update(kw)
        return base

    def test_counts_every_kind_of_failure_over_every_attempt(self):
        self.assertEqual(benchstats.fail_ratio(self.raw()), 0)
        r = self.raw(rounds_failed=1, fetches_failed=2, probe_missing=3,
                     fetches_attempted=1000, probe_expected=100)
        self.assertAlmostEqual(benchstats.fail_ratio(r), 6 / 1200)

    def test_nothing_attempted_is_an_error(self):
        with self.assertRaises(ValueError):
            benchstats.fail_ratio(self.raw(rounds_attempted=0))


class CompareTest(unittest.TestCase):
    METRICS = [("setup_s", "s", "lower", 0.25), ("rounds_per_s", "rounds/s", "higher", 0.1),
               ("round_p50_s", "s", "lower", 0.1)]

    def runs(self, setup, rps, p50):
        return {"setup_s": setup, "rounds_per_s": rps, "round_p50_s": p50}

    def test_spread_is_iqr_over_median(self):
        values = [9, 10, 10, 10, 11]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(benchstats.spread(values), (q3 - q1) / med)

    def test_steady_sets_pass(self):
        a = self.runs([1, 1.1, 1.05, 1.1], [10, 10.1, 9.9, 10], [0.3, 0.31, 0.3, 0.29])
        b = self.runs([1.2, 1.3, 1.1, 1.2], [10.2, 10, 9.8, 10.1], [0.3, 0.3, 0.31, 0.3])
        self.assertEqual(benchstats.compare(a, b, self.METRICS), [])

    def test_setup_spread_and_median_are_bounded(self):
        a = self.runs([1, 1.1, 1, 1.1], [10] * 4, [0.3] * 4)
        b = self.runs([1, 3, 1, 3], [10] * 4, [0.3] * 4)
        failures = benchstats.compare(a, b, self.METRICS)
        self.assertEqual([f[0] for f in failures], ["setup_s", "setup_s"])
        self.assertIn("second spread", failures[0][1])
        b = self.runs([1.4] * 4, [10] * 4, [0.3] * 4)
        failures = benchstats.compare(a, b, self.METRICS)
        self.assertEqual([f[0] for f in failures], ["setup_s"])
        self.assertIn("median", failures[0][1])

    def test_direction_of_worse(self):
        a = self.runs([1] * 4, [10] * 4, [0.3] * 4)
        slower = self.runs([1] * 4, [8.5] * 4, [0.3] * 4)
        faster = self.runs([1] * 4, [12] * 4, [0.2] * 4)
        self.assertEqual([f[0] for f in benchstats.compare(a, slower, self.METRICS)],
                         ["rounds_per_s"])
        self.assertEqual(benchstats.compare(a, faster, self.METRICS), [])
        later = self.runs([1] * 4, [10] * 4, [0.34] * 4)
        self.assertEqual([f[0] for f in benchstats.compare(a, later, self.METRICS)],
                         ["round_p50_s"])

    def test_wide_spread_fails(self):
        a = self.runs([1] * 4, [8, 12, 8, 12], [0.3] * 4)
        b = self.runs([1] * 4, [10] * 4, [0.3] * 4)
        failures = benchstats.compare(a, b, self.METRICS)
        self.assertEqual(failures[0][0], "rounds_per_s")
        self.assertIn("first spread", failures[0][1])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match_benchmark_json(self):
        path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json beside perfbench/")
        with open(path) as f:
            spec = json.load(f)
        self.assertEqual([(m["name"], m["unit"], m["better"], m["bound"])
                          for m in spec["end_to_end"]], benchstats.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         benchstats.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
