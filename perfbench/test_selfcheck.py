"""Self-check of the benchmark at tiny scale; never gates on wall time.

Run from the repository root:

    python3 -m pytest -q perfbench

For each workload it runs the benchmark twice on one seed, once untraced
and once traced, and checks the result line against BENCHMARK.json
(names, units, finite values, end-to-end values above 0) and that both
runs give the same fingerprint and counts. It also checks that the
benchmark fails, without a result line, where there are no sources.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "0.5",
         "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def check_schema(result: dict, specs: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for m in specs:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert math.isfinite(got["value"])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_two_runs_agree(workload):
    reports = []
    for trace, specs in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        proc = run_bench(ROOT, workload, 7, trace)
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc.stdout)
        check_schema(result, specs)
        if trace == 0:
            for name, got in result["metrics"].items():
                assert got["value"] > 0, name
        out = ROOT / ".perfbench-out" / f"{workload}-seed7-tiny"
        reports.append(json.loads((out / "report.json").read_text()))
    first, second = reports
    assert first["fingerprint"] == second["fingerprint"]
    assert first["counts"] == second["counts"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "central-train", 1, 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
