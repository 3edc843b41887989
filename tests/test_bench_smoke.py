"""Smoke test of the benchmark harness: its self-check runs every workload
on tiny inputs, compares each output with the independent oracles and
shows each check rejecting a perturbed value.  No timing is asserted."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_harness_self_check_passes():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--self-check"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "self-check passed" in proc.stdout
