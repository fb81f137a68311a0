"""Smoke test of the benchmark: every workload on tiny inputs, checks included.

    python3 -m pytest bench/test_smoke.py -q

Runs in well under a minute per mode.  It checks that each workload runs
to its end, that its correctness checks pass, and that it prints exactly the
metrics BENCHMARK.json names, with their units.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(result: dict, metrics: list) -> None:
    assert result["correct"] is True
    assert result["attempted"] >= len(SPEC["workloads"])
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"] for m in metrics}
    assert set(result["metrics"]) == set(expected)
    for name, unit in expected.items():
        assert result["metrics"][name]["unit"] == unit
        assert math.isfinite(result["metrics"][name]["value"])


def test_end_to_end_metrics():
    _check(_run(0), SPEC["end_to_end"])


def test_per_layer_metrics():
    _check(_run(1), SPEC["per_layer"])
