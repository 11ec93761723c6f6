"""Tiny-size smoke test of the benchmark harness.

Runs every workload with --smoke inputs: checks that each end-to-end and
per-layer metric named in BENCHMARK.json is emitted with its unit, that the
outputs check out, and that the exact work counters repeat between runs.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(trace: int, out: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True, proc.stdout
    return line


def _units(section: str) -> dict:
    return {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC[section]}


def _counters(report: Path) -> dict:
    data = json.loads(report.read_text())
    out = {}
    for rep in data["reports"]:
        assert rep["counters_identical"], rep["workload"]
        out[rep["workload"]] = rep["counters"]
        for key, value in rep.get("layers", {}).items():
            if not key.endswith(("_s", "_ms", "_ratio")):
                out[f"{rep['workload']}.{key}"] = value
    return out


def test_metrics_emitted_and_counters_repeat(tmp_path):
    plain = _run(0, tmp_path / "plain.json")
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == _units("end_to_end")
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    first = _run(1, tmp_path / "traced1.json")
    second = _run(1, tmp_path / "traced2.json")
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _units("per_layer")
    assert set(second["metrics"]) == set(first["metrics"])
    # the known defects are the only failures, and they fail the same way
    assert first["failed"] == second["failed"] > 0
    assert _counters(tmp_path / "traced1.json") == _counters(tmp_path / "traced2.json")
    plain_counters = {k: v for k, v in _counters(tmp_path / "plain.json").items()
                      if k in WORKLOADS}
    assert plain_counters == {k: v for k, v in _counters(tmp_path / "traced1.json").items()
                              if k in WORKLOADS}
