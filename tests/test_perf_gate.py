"""Tests of ``scripts/perf_gate.py``, the gate ``make perf-check`` runs
over its benchmark outputs.  The result lines here are synthetic; no
benchmark runs."""

import json
import os
import runpy
import subprocess
import sys

import pytest

GATE = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "perf_gate.py"
)
WALL_LIMIT_S = runpy.run_path(GATE)["WALL_LIMIT_S"]


def result_line(metrics, correct=True):
    return json.dumps({
        "correct": correct,
        "attempted": 1,
        "failed": 0 if correct else 1,
        "metrics": {name: {"value": value, "unit": "s"} for name, value in metrics.items()},
    })


def write(tmp_path, name, last_line):
    path = tmp_path / name
    path.write_text(f"perfbench {name}, 0 s\n  wall_s = 1 s (n=1)\n{last_line}\n")
    return str(path)


def gate(*paths):
    return subprocess.run(
        [sys.executable, GATE, *paths], capture_output=True, text=True, timeout=60
    )


def passing_pair(tmp_path):
    return [
        write(tmp_path, "flood_200.out", result_line({"wall_s": 0.5})),
        write(tmp_path, "flood_200.trace.out", result_line({"trace.unattributed_frac": 0.001})),
    ]


def test_passing_untraced_and_traced_pair_exits_0(tmp_path):
    done = gate(*passing_pair(tmp_path))
    assert done.returncode == 0, done.stdout
    assert "perf-gate: OK" in done.stdout


@pytest.mark.parametrize("workload", sorted(WALL_LIMIT_S))
def test_wall_s_at_twice_the_ceiling_fails(tmp_path, workload):
    (tmp_path / "slow").mkdir()
    slow = write(
        tmp_path / "slow", f"{workload}.out", result_line({"wall_s": 2 * WALL_LIMIT_S[workload]})
    )
    done = gate(*passing_pair(tmp_path), slow)
    assert done.returncode == 1
    assert f"FAIL: {slow}: wall_s" in done.stdout


def test_incorrect_result_fails(tmp_path):
    path = write(tmp_path, "hvdb_200.out", result_line({"wall_s": 1.0}, correct=False))
    done = gate(path)
    assert done.returncode == 1
    assert '"correct": true' in done.stdout


@pytest.mark.parametrize(
    "name, metrics",
    [
        ("hvdb_200.trace.out", {"trace.unattributed_frac": 0.05}),
        ("hvdb_200.trace.out", {"wall_s": 1.0}),
        ("hvdb_200.out", {"frames_per_s": 1.0}),
    ],
    ids=["unattributed-at-limit", "unattributed-missing", "wall-missing"],
)
def test_metric_at_its_limit_or_missing_fails(tmp_path, name, metrics):
    done = gate(write(tmp_path, name, result_line(metrics)))
    assert done.returncode == 1


@pytest.mark.parametrize("last_line", ["", "wall_s = 0.5 s", "[1, 2"])
def test_last_line_that_is_no_result_fails(tmp_path, last_line):
    path = tmp_path / "sweep_phy_smoke.out"
    path.write_text(f"{result_line({'wall_s': 0.5})}\n{last_line}\n")
    assert gate(str(path)).returncode == 1


def test_empty_file_fails(tmp_path):
    path = tmp_path / "sweep_phy_smoke.out"
    path.write_text("")
    assert gate(str(path)).returncode == 1


def test_unknown_workload_fails(tmp_path):
    done = gate(write(tmp_path, "hvdb_400.out", result_line({"wall_s": 0.5})))
    assert done.returncode == 1
    assert "unknown workload" in done.stdout


def test_no_files_fails():
    done = gate()
    assert done.returncode == 1
    assert "no benchmark outputs" in done.stdout
