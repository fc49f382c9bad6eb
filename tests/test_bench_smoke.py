"""Smoke test of the benchmark: one traced certify run at reduced rounds.

The benchmark wraps package functions and methods by name and fails a run in
which an expected span saw no call, so this catches a renamed or dropped
target before the full benchmark is run.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_traced_certify_run_passes():
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload", "certify",
         "--seed", "3", "--seconds", "0", "--rounds", "20", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True
