#!/usr/bin/env python3
"""Tests of the benchmark itself.

    python3 perfbench/test_perfbench.py

Run from the repository root. The stream tests build the perfbench
program first (as run.py does)."""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import benchlib  # noqa: E402
import run  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 1001))
        self.assertEqual(benchlib.percentile(values, 50), 500)
        self.assertEqual(benchlib.percentile(values, 95), 950)
        self.assertEqual(benchlib.percentile(values, 99), 990)
        self.assertEqual(benchlib.percentile(list(reversed(values)), 99), 990)

    def test_ten_samples_beyond(self):
        self.assertEqual(benchlib.beyond(1000, 99), 10)
        self.assertEqual(benchlib.beyond(999, 99), 9)
        benchlib.percentile(range(1000), 99)
        with self.assertRaises(ValueError):
            benchlib.percentile(range(999), 99)
        with self.assertRaises(ValueError):
            benchlib.percentile(range(100), 95)
        benchlib.percentile(range(200), 95)
        with self.assertRaises(ValueError):
            benchlib.percentile([], 50)


class EndToEndTest(unittest.TestCase):
    def test_stalled_keeps_commands_that_waited_for_a_tick(self):
        ticks = [60.0, 70.0, 80.0]
        values = [0.2, 0.3, 34.9, 35.0, 68.0, 140.0]
        self.assertEqual(benchlib.stalled(values, ticks), [35.0, 68.0, 140.0])

    def test_tick_and_stall_percentiles(self):
        lines = []
        for i in range(40):
            lines.append(f"tick {60_000_000 + i} 1 0")   # ran alone
            lines.append(f"tick {200_000_000 + i} 1 1")  # after a TICK
            for kind in ("update", "query"):
                lines.append(f"{kind} {100_000_000 + i} 1 1")
                lines += [f"{kind} 200000 1 0"] * 3
        samples = benchlib.parse_samples("\n".join(lines))
        summary = {"elapsed_ns": 10**9, "cpu_ticks": 100, "clk_tck": 100,
                   "setup_ns": [10**9], "recovery_ns": [], "peak_kb": 1024}
        m = benchlib.end_to_end(summary, samples)
        self.assertEqual(m["ops_per_s"], len(samples))
        self.assertAlmostEqual(m["tick_alone_p75_ms"], 60.000029)
        self.assertAlmostEqual(m["write_stall_p75_ms"], 100.000029)
        self.assertAlmostEqual(m["query_stall_p75_ms"], 100.000029)


class OracleTest(unittest.TestCase):
    # Section 3 of the paper: capacity 24 cache ways and 12 GB/s.
    ROWS = [("user1", ["0.6", "0.4"], "SHARE user1 17.999999999999996 4"),
            ("user2", ["0.2", "0.8"], "SHARE user2 6 8")]

    def test_accepts_worked_example(self):
        self.assertEqual(benchlib.check_shares(self.ROWS), [])
        shares = benchlib.ref_shares([[0.6, 0.4], [0.2, 0.8]])
        self.assertAlmostEqual(shares[1][0], 6)
        self.assertAlmostEqual(shares[1][1], 8)

    def test_rejects_perturbed_share(self):
        rows = [self.ROWS[0],
                ("user2", ["0.2", "0.8"], "SHARE user2 6.000001 8")]
        self.assertEqual(len(benchlib.check_shares(rows)), 1)

    def test_rejects_wrong_agent_and_error(self):
        rows = [self.ROWS[0], ("user2", ["0.2", "0.8"], "SHARE user1 6 8")]
        self.assertEqual(len(benchlib.check_shares(rows)), 1)
        rows = [self.ROWS[0], ("user2", ["0.2", "0.8"], "ERR unknown")]
        self.assertEqual(len(benchlib.check_shares(rows)), 1)

    def test_order_independent(self):
        flipped = list(reversed(self.ROWS))
        self.assertEqual(benchlib.check_shares(flipped), [])


class BenchmarkJsonTest(unittest.TestCase):
    def test_metric_tables_match(self):
        spec = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, benchlib.E2E_UNITS)
        self.assertEqual(layers, benchlib.LAYER_UNITS)
        self.assertLessEqual({w["name"] for w in spec["workloads"]},
                             set(run.WORKLOADS))


class StreamTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.perfbench = run.build()[0]

    def stream(self, name, seed):
        w = run.WORKLOADS[name]
        flags = run.workload_flags(w, seed)
        if name == "pooled_100k":  # same generator, smaller preload
            flags[flags.index("--agents") + 1] = "2000"
        return subprocess.run([self.perfbench, "stream", *flags,
                               "--ops", "5000"], check=True,
                              capture_output=True).stdout

    def test_seed_gives_identical_stream(self):
        for name in run.WORKLOADS:
            first = self.stream(name, run.DEFAULT_SEED)
            self.assertEqual(first, self.stream(name, run.DEFAULT_SEED))
            self.assertNotEqual(first, self.stream(name, run.HELDOUT_SEED))

    def test_churn_is_one_for_one_and_queries_hit_stable_agents(self):
        live, departed = set(), set()
        for line in self.stream("epoch_flat_1k", 7).decode().splitlines():
            source, verb, *rest = line.split()
            if verb == "ADMIT":
                live.add(rest[0])
            elif verb == "DEPART":
                live.remove(rest[0])
                departed.add(rest[0])
            elif verb == "QUERY":
                self.assertIn(rest[0], live)
                self.assertNotIn(rest[0], departed)
            if source != "setup":
                # Each of the 4 connections may be between the DEPART
                # and the ADMIT of one replacement.
                self.assertLessEqual(len(live), 1000)
                self.assertGreaterEqual(len(live), 996)
        self.assertTrue(departed)


if __name__ == "__main__":
    unittest.main()
