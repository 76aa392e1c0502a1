"""Smoke test of the benchmark: every op kind and output check at tiny sizes."""

import subprocess
import sys
from pathlib import Path


def test_benchmark_selftest():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--selftest"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
