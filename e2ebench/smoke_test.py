"""Smoke test of the benchmark itself, at the tiny size.

Run from the root of a checkout::

    python3 -m pytest -q e2ebench/smoke_test.py

Checks that every workload prints every named metric with its unit in
both the untraced and the traced run, that ``ok_rate`` is exactly 1.0 on
a healthy build, and that a deliberately wrong ground truth lowers
``ok_rate`` and makes the command fail.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import E2E, LAYERS, WORKLOADS  # noqa: E402


def _run(workload: str, *extra: str) -> "tuple[int, dict]":
    out = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--size",
            "tiny",
            "--seconds",
            "0.5",
            "--seed",
            "3",
            *extra,
        ],
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )
    lines = out.stdout.strip().splitlines()
    assert lines, out.stderr
    return out.returncode, json.loads(lines[-1])


def _check_shape(result: dict, expected: "list[tuple[str, str]]") -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 100
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(name for name, _ in expected)
    for name, unit in expected:
        assert metrics[name]["unit"] == unit
        assert isinstance(metrics[name]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload: str) -> None:
    code, result = _run(workload, "--trace", "0")
    assert code == 0
    _check_shape(result, E2E)
    assert result["correct"] is True and result["failed"] == 0
    assert result["metrics"]["ok_rate"]["value"] == 1.0
    for name in ("setup_s", "join_p50_ms", "join_p90_ms", "throughput_qps"):
        assert result["metrics"][name]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload: str) -> None:
    code, result = _run(workload, "--trace", "1")
    assert code == 0
    _check_shape(result, [(name, unit) for name, unit, _ in LAYERS])
    assert result["metrics"]["serve.rejects"]["value"] == 0
    assert result["metrics"]["trace.coverage"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_truth_fails(workload: str) -> None:
    code, result = _run(workload, "--trace", "0", "--corrupt-truth")
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_rate"]["value"] < 1.0


def test_refuses_without_program(tmp_path: Path) -> None:
    """Outside a checkout (no src/) it exits non-zero with no result line."""
    bench = tmp_path / "e2ebench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "seq-rcd-tiger"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    assert out.returncode != 0
    assert not out.stdout.strip().startswith("{")
    assert "{" not in out.stdout
