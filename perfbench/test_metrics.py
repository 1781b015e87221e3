"""Tests of perfbench's own statistics helpers.

    python3 -B -m unittest discover -s perfbench -p 'test_*.py'
"""

import sys
import unittest

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import metrics  # noqa: E402
from metrics import Span  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_leaves_exactly_ten_samples_beyond(self):
        values = list(range(1, 101))  # 1..100
        pct, value = metrics.tail_percentile(values)
        self.assertEqual(value, 90)
        self.assertAlmostEqual(pct, 90.0)
        self.assertEqual(sum(v > value for v in values), 10)

    def test_order_of_input_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 8.0, 7.0, 6.0, 10.0, 11.0,
                  12.0]
        pct, value = metrics.tail_percentile(values)
        self.assertEqual(value, 2.0)
        self.assertAlmostEqual(pct, 100.0 * 2 / 12)

    def test_eleven_samples_is_the_minimum(self):
        self.assertEqual(metrics.tail_percentile(list(range(11)))[1], 0)
        with self.assertRaises(ValueError):
            metrics.tail_percentile(list(range(10)))

    def test_higher_percentile_would_leave_fewer_than_ten(self):
        values = [float(i) for i in range(1000)]
        pct, value = metrics.tail_percentile(values)
        self.assertAlmostEqual(pct, 99.0)
        self.assertEqual(value, 989.0)


class LogLogSlopeTest(unittest.TestCase):
    def test_recovers_a_power_law_exponent(self):
        xs = [1000, 2000, 4000, 8000]
        self.assertAlmostEqual(
            metrics.loglog_slope(xs, [3e-9 * x ** 2 for x in xs]), 2.0)
        self.assertAlmostEqual(
            metrics.loglog_slope(xs, [5.0 * x for x in xs]), 1.0)

    def test_is_a_least_squares_fit(self):
        # log y = log x + ln2 * (+1, -1, +1, -1): the alternating residual
        # tilts the least-squares line to slope 1 - 2/5.
        xs = [1, 2, 4, 8]
        ys = [x * f for x, f in zip(xs, [2.0, 0.5, 2.0, 0.5])]
        self.assertAlmostEqual(metrics.loglog_slope(xs, ys), 0.6)

    def test_needs_two_distinct_sizes(self):
        with self.assertRaises(ValueError):
            metrics.loglog_slope([100, 100], [1.0, 2.0])


class SelfTimeTest(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        spans = [Span(1, 0, 1, "request", 0, 1000)]
        self.assertEqual(metrics.self_times(spans)[1], 1000 / 1e9)

    def test_children_are_subtracted(self):
        spans = [Span(1, 0, 1, "request", 0, 1000),
                 Span(2, 1, 1, "trace.parse", 100, 300),
                 Span(3, 1, 1, "solve.auto", 400, 900)]
        self.assertAlmostEqual(metrics.self_times(spans)[1], 300 / 1e9)

    def test_overlapping_children_count_once(self):
        spans = [Span(1, 0, 1, "request", 0, 1000),
                 Span(2, 1, 1, "a", 100, 600),
                 Span(3, 1, 1, "b", 400, 800)]
        self.assertAlmostEqual(metrics.self_times(spans)[1], 300 / 1e9)

    def test_child_outside_parent_is_clipped(self):
        spans = [Span(1, 0, 1, "request", 100, 1000),
                 Span(2, 1, 1, "a", 0, 300),
                 Span(3, 1, 1, "b", 900, 1200)]
        self.assertAlmostEqual(metrics.self_times(spans)[1], 600 / 1e9)

    def test_grandchildren_count_against_their_parent_only(self):
        spans = [Span(1, 0, 1, "request", 0, 1000),
                 Span(2, 1, 1, "check", 0, 500),
                 Span(3, 2, 1, "core.validate", 100, 400)]
        selfs = metrics.self_times(spans)
        self.assertAlmostEqual(selfs[1], 500 / 1e9)
        self.assertAlmostEqual(selfs[2], 200 / 1e9)
        self.assertAlmostEqual(selfs[3], 300 / 1e9)

    def test_request_latency_excludes_side_calls(self):
        spans = [Span(1, 0, 1, "request", 0, 1000, "HF/2000"),
                 Span(2, 1, 1, "solve.auto", 0, 400),
                 Span(3, 1, 1, "heuristics.OS", 400, 1000, "side")]
        [(latency, tag)] = metrics.request_latencies(spans)
        self.assertAlmostEqual(latency, 400 / 1e9)
        self.assertEqual(tag, "HF/2000")


if __name__ == "__main__":
    unittest.main()
