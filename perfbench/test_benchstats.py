#!/usr/bin/env python3
"""Unit tests for perfbench/benchstats.py.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import benchstats  # noqa: E402


class CeilRankTest(unittest.TestCase):
    def test_rank_is_ceil_of_share(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(benchstats.ceil_rank(values, 50), 50)
        self.assertEqual(benchstats.ceil_rank(values, 90), 90)

    def test_non_integer_rank_rounds_up(self):
        values = list(range(1, 121))  # 120 samples: 0.9 * 120 = 108
        self.assertEqual(benchstats.ceil_rank(values, 90), 108)
        values = list(range(1, 112))  # 111 samples: 0.9 * 111 = 99.9
        self.assertEqual(benchstats.ceil_rank(values, 90), 100)

    def test_share_is_exact_not_float(self):
        # 0.9 * 110 is 99.00000000000001 in binary floating point; the
        # rank must still be 99.
        values = list(range(1, 111))
        self.assertEqual(benchstats.ceil_rank(values, 90), 99)

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
        self.assertEqual(benchstats.ceil_rank(values, 50), 3.0)

    def test_needs_ten_samples_beyond(self):
        self.assertIsNone(benchstats.ceil_rank(list(range(99)), 90))
        self.assertEqual(benchstats.ceil_rank(list(range(100)), 90), 89)
        self.assertIsNone(benchstats.ceil_rank(list(range(19)), 50))
        self.assertEqual(benchstats.ceil_rank(list(range(20)), 50), 9)

    def test_empty(self):
        self.assertIsNone(benchstats.ceil_rank([], 50))


def span(start, end, parent=-1):
    return {"start_ns": start, "end_ns": end, "parent": parent}


class SelfTimeTest(unittest.TestCase):
    def test_leaf_keeps_its_duration(self):
        self.assertEqual(benchstats.self_times([span(0, 10)]), [10])

    def test_children_are_subtracted(self):
        spans = [span(0, 100), span(10, 30, 0), span(50, 60, 0)]
        self.assertEqual(benchstats.self_times(spans), [70, 20, 10])

    def test_overlapping_children_count_once(self):
        spans = [span(0, 100), span(10, 50, 0), span(40, 70, 0)]
        self.assertEqual(benchstats.self_times(spans)[0], 40)

    def test_child_is_clipped_to_parent(self):
        spans = [span(0, 100), span(90, 120, 0)]
        self.assertEqual(benchstats.self_times(spans)[0], 90)

    def test_grandchildren_belong_to_their_parent(self):
        spans = [span(0, 100), span(10, 60, 0), span(20, 40, 1)]
        self.assertEqual(benchstats.self_times(spans), [50, 30, 20])

    def test_self_times_sum_to_root_duration(self):
        spans = [span(0, 100), span(5, 45, 0), span(50, 90, 0),
                 span(10, 20, 1), span(60, 85, 2)]
        self.assertEqual(sum(benchstats.self_times(spans)), 100)


def run(name, digest, verdict=True, **extra):
    r = {"name": name, "phase": "timed", "pass": 1, "digest": digest,
         "verdict": verdict}
    r.update(extra)
    return r


class CheckRunsTest(unittest.TestCase):
    expected = {"a": {"digest": "d1", "verdict": True},
                "b": {"digest": "d2", "verdict": None}}

    def test_matching_runs_pass(self):
        records = [run("a", "d1"), run("b", "d2", None)]
        self.assertEqual(benchstats.check_runs(records, self.expected),
                         (2, 0, []))

    def test_digest_mismatch_fails(self):
        attempted, failed, problems = benchstats.check_runs(
            [run("a", "xx")], self.expected)
        self.assertEqual((attempted, failed), (1, 1))
        self.assertIn("digest xx, expected d1", problems[0])

    def test_verdict_mismatch_fails(self):
        _, failed, problems = benchstats.check_runs(
            [run("a", "d1", False)], self.expected)
        self.assertEqual(failed, 1)
        self.assertIn("verdict", problems[0])

    def test_thrown_run_fails(self):
        record = {"name": "a", "phase": "timed", "pass": 1, "error": "boom"}
        _, failed, problems = benchstats.check_runs([record], self.expected)
        self.assertEqual(failed, 1)
        self.assertIn("threw: boom", problems[0])

    def test_unknown_run_fails(self):
        _, failed, _ = benchstats.check_runs([run("zz", "d1")], self.expected)
        self.assertEqual(failed, 1)


class QuartileSpreadTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        # quantiles(n=4, exclusive): q1 = 11.75, q2 = 14.5, q3 = 17.25
        self.assertAlmostEqual(benchstats.quartile_spread(values),
                               (17.25 - 11.75) / 14.5)


if __name__ == "__main__":
    unittest.main()
