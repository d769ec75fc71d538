#!/usr/bin/env python3
"""Tests of the benchmark itself, at smoke size.

    python3 perfbench/test_perfbench.py

Each workload must pass every output check in a timed and a traced run,
and each check must raise the failure count when its output is broken on
purpose (--inject).
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

RUNNER = None


def bench(workload, trace=0, inject=None, env=None):
    """Run the runner at smoke size; return (exit code, last-line JSON)."""
    cmd = [RUNNER, "--workload", workload, "--seed", "3", "--seconds", "0",
           "--trace", str(trace), "--smoke"]
    if inject:
        cmd += ["--inject", inject]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120, env=env)
    lines = done.stdout.strip().splitlines()
    return done.returncode, json.loads(lines[-1]) if lines else None


def setUpModule():
    global RUNNER
    RUNNER = run.build()


class SmokeRuns(unittest.TestCase):
    def test_timed_runs_pass_every_check(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, result = bench(w)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 4)
                self.assertEqual(set(result["metrics"]),
                                 {"wall_s", "vtime_ms", "setup_s",
                                  "peak_rss_mb"})
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_runs_pass_every_check(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                code, result = bench(w, trace=1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                m = result["metrics"]
                self.assertGreater(m["mpi.msgs"]["value"], 0)
                self.assertGreater(m["mpi.post_us"]["value"], 0)
                self.assertGreater(m["obs.trace_overhead"]["value"], 0)
                if w != "halo":
                    # Virtual time there does not depend on the schedule.
                    self.assertEqual(m["core.vtime_skew"]["value"], 1.0)
                if w == "dataenv":
                    self.assertGreater(m["mpi.sendrecv_us"]["value"], 0)
                    self.assertGreater(m["mpi.ring_us"]["value"], 0)
                fractions = sum(v["value"] for k, v in m.items()
                                if k.startswith("critpath."))
                self.assertAlmostEqual(fractions, 1.0, places=6)

    def test_traced_metrics_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        _, result = bench("storm", trace=1)
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["per_layer"]})
        _, result = bench("storm")
        self.assertEqual(set(result["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})


class ChecksCatchBrokenOutputs(unittest.TestCase):
    def assert_every_launch_fails(self, workload, inject):
        code, result = bench(workload, inject=inject)
        self.assertEqual(code, 0)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])

    def test_corrupted_checksum(self):
        self.assert_every_launch_fails("dataenv", "corrupt_checksum")

    def test_dropped_receive(self):
        self.assert_every_launch_fails("storm", "drop_recv")

    def test_stray_message(self):
        self.assert_every_launch_fails("storm", "stray_msg")

    def test_wrong_element_count(self):
        self.assert_every_launch_fails("storm", "short_msg")

    def test_wrong_task_count(self):
        self.assert_every_launch_fails("halo", "wrong_tasks")

    def test_inherited_impacc_variable_is_refused(self):
        env = dict(os.environ, IMPACC_HANDLER_BATCHING="0")
        code, result = bench("storm", env=env)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)


if __name__ == "__main__":
    unittest.main()
