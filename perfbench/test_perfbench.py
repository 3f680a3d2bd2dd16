#!/usr/bin/env python3
"""Self-test of the repository benchmark (stdlib unittest).

Run from the root of a checkout:

    python3 perfbench/test_perfbench.py

Runs every workload at test size (--tiny, 1 s), untraced and traced, and
checks that the result line carries exactly the metrics BENCHMARK.json
declares, each with its declared unit, that the report line carries the
workload's named figures, and that a corrupted expected hash
(--corrupt-check) is caught: the run reports correct = false, counts the
mismatch as failed, and exits 1.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)

# The named figures each workload's report line must carry.
FIGURES = {
    "ring_cover": ["solve_s.rotor", "solve_s.ring", "solve_s.lazy",
                   "solve_s.served"],
    "torus_bulk": ["sharded_agent_steps_per_s", "seq_agent_steps_per_s",
                   "save_s", "resume_s"],
}
COMMON_FIGURES = ["setup_s", "failed_share", "rss_peak_mb"]


def run(workload, trace, *extra):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    report = json.loads(lines[-2].split(" ", 1)[1])
    return proc.returncode, report, json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, result, declared):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        got = result["metrics"]
        self.assertEqual(list(got), [m["name"] for m in declared])
        for m in declared:
            self.assertEqual(got[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(got[m["name"]]["value"], (int, float))

    def test_untraced_runs_print_every_end_to_end_metric(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                code, report, result = run(w["name"], 0)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)
                self.check_metrics(result, BENCH["end_to_end"])
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)
                for name in FIGURES[w["name"]] + COMMON_FIGURES:
                    self.assertIn(name, report["figures"])
                    self.assertTrue(report["figures"][name]["unit"])
                self.assertEqual(report["figures"]["failed_share"]["value"], 0)
                for key in ["nproc", "llc_bytes", "build_type", "ckpt_dir_fs",
                            "engine_state_bytes_computed_from_array_sizes"]:
                    self.assertIn(key, report["env"])

    def test_traced_runs_print_every_per_layer_metric(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                code, _, result = run(w["name"], 1)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.check_metrics(result, BENCH["per_layer"])
                self.assertGreater(result["metrics"]["trace.spans"]["value"], 0)

    def test_corrupted_expected_hash_is_caught(self):
        for w in BENCH["workloads"]:
            with self.subTest(workload=w["name"]):
                code, report, result = run(w["name"], 0, "--corrupt-check")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)
                self.assertGreater(report["figures"]["failed_share"]["value"],
                                   0)


if __name__ == "__main__":
    unittest.main()
