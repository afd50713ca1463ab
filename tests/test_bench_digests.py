"""Smoke test of the benchmark: every workload reproduces its recorded digests.

Runs ``perfbench/worker.py --print-digests`` at the default seed for each
workload and compares the sha256 of every output with
``perfbench/digests.json``.  It only reads ``perfbench/``.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SEED = 7021

with open(os.path.join(BENCH, "digests.json"), encoding="utf-8") as fh:
    RECORDED = json.load(fh)


@pytest.mark.parametrize("workload", sorted(RECORDED))
def test_workload_digests(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--spawned-at", "0", "--print-digests"],
        capture_output=True, text=True, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == RECORDED[workload]
