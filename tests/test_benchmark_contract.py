"""The benchmark's contract with src/: perfbench/run.py drives
`cli.run_experiment` and, in its traced half, reads objects that no output
file shows: the area maps' dense views (`maps.e_mats`), the certificate's
dense B (`op.b_mat`), the bus ledger's per-tag counts and each node's
(out, sends) tuple.  Its untraced half checks that results.json is
byte-identical across random schedules.  A short run of each kind of
workload must report every operation correct."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# one area with the balance step; five areas with the bus and its ledger; and
# the README quick start, the one workload with an area of degree 4
@pytest.mark.parametrize("workload", ["feeder33-t10-a1", "random128-t5-a5",
                                      "feeder33-t5-a5"])
def test_short_traced_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.splitlines()[-1])
    assert summary["correct"] is True, proc.stdout
    assert summary["failed"] == 0
