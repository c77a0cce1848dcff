"""Tier-1 smoke of ``benchmarks/perf``, the repository's timing harness.

The harness lives outside ``testpaths`` and names ``Router`` methods and
CLI flags from the outside, so a rename breaks it silently; this runs
one workload end to end as the benchmark driver does.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def test_one_workload_runs_correct_with_the_contract_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "mesh_lowload",
         "--smoke", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["correct"] is True, proc.stdout
    assert report["failed"] == 0, proc.stdout
    assert list(report["metrics"]) == [m["name"] for m in spec["end_to_end"]]
