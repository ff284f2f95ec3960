"""Self-tests of the benchmark's helpers.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import os
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_states_value_and_count(self):
        samples = list(range(1, 101))  # 1..100
        self.assertEqual(benchlib.percentile(samples, 0.5), (50, 100))
        self.assertEqual(benchlib.percentile(samples, 0.9), (90, 100))

    def test_nearest_rank_ignores_input_order(self):
        self.assertEqual(benchlib.percentile([5, 1, 4, 2, 3] * 5, 0.5),
                         (3, 25))

    def test_refuses_fewer_than_ten_beyond(self):
        # p99 of 999 samples leaves 9 above the rank; 1000 leaves 10.
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(list(range(999)), 0.99)
        self.assertEqual(benchlib.percentile(list(range(1000)), 0.99),
                         (989, 1000))
        # A median needs 20 samples.
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile(list(range(19)), 0.5)
        with self.assertRaises(benchlib.TooFewSamples):
            benchlib.percentile([], 0.5)
        self.assertEqual(benchlib.percentile(list(range(20)), 0.5)[1], 20)

    def test_rejects_degenerate_quantile(self):
        with self.assertRaises(ValueError):
            benchlib.percentile(list(range(100)), 1.0)


class NormalizedTest(unittest.TestCase):
    def test_scales_by_the_reference_burst(self):
        nominal = benchlib.NOMINAL_BURST_S
        self.assertEqual(benchlib.normalized(3.0, nominal), 3.0)
        # A host twice as slow: the burst takes twice as long, and the
        # same work reads as half its measured time.
        self.assertAlmostEqual(benchlib.normalized(3.0, 2 * nominal), 1.5)

    def test_refuses_a_pass_without_bursts(self):
        with self.assertRaises(ValueError):
            benchlib.normalized(3.0, 0.0)


def chrome(*events):
    return {"traceEvents": [
        {"name": n, "ph": "X", "ts": ts, "dur": dur, "tid": tid}
        for n, ts, dur, tid in events]}


class SpanTest(unittest.TestCase):
    def test_parents_are_innermost_enclosing_span_on_same_thread(self):
        spans = benchlib.spans_from_chrome(chrome(
            ("pass", 0, 100, 1), ("epoch", 10, 40, 1), ("k", 15, 10, 1),
            ("epoch", 60, 30, 1), ("shard", 20, 5, 2)))
        parent = {(s["name"], s["start"]): s["parent"] for s in spans}
        self.assertIsNone(parent[("pass", 0)])
        self.assertEqual(parent[("epoch", 10)], 0)
        self.assertEqual(parent[("k", 15)], 1)
        self.assertEqual(parent[("epoch", 60)], 0)
        # Another thread's span has no parent even when inside in time.
        self.assertIsNone(parent[("shard", 20)])

    def test_self_time_subtracts_children(self):
        spans = benchlib.spans_from_chrome(chrome(
            ("pass", 0, 100, 1), ("epoch", 10, 40, 1), ("k", 15, 10, 1),
            ("epoch", 60, 30, 1)))
        self.assertEqual(benchlib.self_times(spans), [30.0, 30.0, 10.0, 30.0])

    def test_self_time_counts_overlapping_children_once(self):
        spans = [
            {"name": "a", "tid": 1, "start": 0.0, "end": 10.0, "parent": None},
            {"name": "b", "tid": 1, "start": 1.0, "end": 5.0, "parent": 0},
            {"name": "c", "tid": 1, "start": 3.0, "end": 8.0, "parent": 0},
        ]
        self.assertEqual(benchlib.self_times(spans)[0], 3.0)

    def test_durations_exclude_nested_bursts_at_every_level(self):
        spans = benchlib.spans_from_chrome(chrome(
            ("pass", 0, 100, 1), ("run", 10, 80, 1), ("epoch", 20, 30, 1),
            ("burst", 25, 5, 1), ("burst", 60, 4, 1), ("burst", 95, 3, 1)))
        own = dict(zip(((s["name"], s["start"]) for s in spans),
                       benchlib.durations_excluding(spans, "burst")))
        self.assertEqual(own[("pass", 0)], 88.0)
        self.assertEqual(own[("run", 10)], 71.0)
        self.assertEqual(own[("epoch", 20)], 25.0)
        self.assertEqual(own[("burst", 25)], 5.0)

    def test_equal_intervals_nest(self):
        spans = benchlib.spans_from_chrome(chrome(
            ("outer", 0, 10, 1), ("inner", 0, 10, 1)))
        self.assertEqual(sorted(benchlib.self_times(spans)), [0.0, 10.0])


def run_pass(fingerprint="00ff", counters=None, checks=None):
    return {"fingerprint": fingerprint, "attempted": 40, "ops_failed": 0,
            "counters": counters or {"sim.runs": 4},
            "checks": checks or {"carried + missed == total": True}}


class FingerprintTest(unittest.TestCase):
    golden = {"plan-exact": {"1": "00ff"}}

    def test_matching_run_is_correct(self):
        passes = [run_pass(), run_pass()]
        self.assertEqual(benchlib.check_fingerprints(
            "plan-exact", 1, passes, self.golden), [])

    def test_seed_without_golden_checks_determinism_only(self):
        self.assertEqual(benchlib.check_fingerprints(
            "plan-exact", 7, [run_pass("abcd")] * 2, self.golden), [])

    def test_golden_mismatch_takes_failure_path(self):
        correct, attempted, failed, problems = benchlib.verdict(
            "plan-exact", 1, [run_pass("abcd"), run_pass("abcd")],
            self.golden)
        self.assertFalse(correct)
        self.assertEqual((attempted, failed), (80, 80))
        self.assertEqual(len(problems), 1)
        self.assertIn("does not match the committed", problems[0])

    def test_correct_run_counts_only_its_own_failures(self):
        passes = [run_pass(), dict(run_pass(), ops_failed=3)]
        self.assertEqual(benchlib.verdict("plan-exact", 1, passes,
                                          self.golden), (True, 80, 3, []))

    def test_pass_to_pass_difference_fails(self):
        problems = benchlib.check_fingerprints(
            "plan-exact", 7, [run_pass(), run_pass("abcd")], self.golden)
        self.assertTrue(any("pass 1 fingerprint" in p for p in problems))
        problems = benchlib.check_fingerprints(
            "plan-exact", 7, [run_pass(), run_pass(counters={"sim.runs": 5})],
            self.golden)
        self.assertTrue(any("work counters" in p for p in problems))

    def test_broken_invariant_fails(self):
        problems = benchlib.check_fingerprints(
            "plan-exact", 1,
            [run_pass(checks={"carried + missed == total": False})],
            self.golden)
        self.assertEqual(
            problems, ["pass 0 invariant failed: carried + missed == total"])

    def test_no_pass_fails(self):
        self.assertEqual(benchlib.check_fingerprints(
            "plan-exact", 1, [], self.golden), ["no pass ran"])


if __name__ == "__main__":
    unittest.main()
