"""The benchmark's four workloads, run briefly, must pass their own checks.

Each workload checks fedsim's outputs against ``perfbench/reference.py``
(the softmax train loss and global gradient to 1e-10; E[W^2], rho and the
limit weights to 1e-12) through the public names the benchmark calls, so a
change that breaks a result or one of those names fails here and not only
in a benchmark run.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_workloads_pass_their_checks():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "all",
                           "--seconds", "0.1", "--seed", "3"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == 4, proc.stdout
    for result in results:
        assert result["correct"] is True and result["failed"] == 0, proc.stdout + proc.stderr
