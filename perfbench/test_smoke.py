"""Smoke test of the benchmark: every workload at tiny size, both modes.

Run with ``python3 -m pytest perfbench/test_smoke.py``. It checks
correctness, counter repeatability and the metric names in BENCHMARK.json;
it sets no timing bounds.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def test_smoke_runs_every_workload_correctly():
    out = subprocess.run(
        [sys.executable, str(RUN), "--smoke"], capture_output=True, text=True, timeout=600
    )
    verdict = json.loads(out.stdout.strip().splitlines()[-1])
    assert out.returncode == 0, verdict["problems"]
    assert verdict["smoke"] == "ok"
