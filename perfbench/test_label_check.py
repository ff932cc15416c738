#!/usr/bin/env python3
"""Test of the benchmark's label check.

    python3 perfbench/test_label_check.py

For every workload, one short run must pass its label check (error rate 0)
and one run with a planted wrong label (--plant-wrong-label corrupts one
returned QoR before the check) must report it: failed > 0, correct false,
exit status 1. Takes about two minutes on a 4-core host.
"""

import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("label_engine", "label_fleet", "pipeline_cnn")


def run(workload, *extra):
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    return res.returncode, json.loads(res.stdout.strip().splitlines()[-1])


class LabelCheckTest(unittest.TestCase):
    def test_clean_runs_have_no_errors(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload)
                self.assertEqual(code, 0)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreater(result["attempted"], 0)

    def test_planted_wrong_label_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                code, result = run(workload, "--plant-wrong-label")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
