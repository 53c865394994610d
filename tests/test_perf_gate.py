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


def passing_set(tmp_path):
    """What a passing ``make perf-check`` hands the gate: every workload
    untraced, well under its ceiling, and the two simulator workloads
    traced.  Each failure case below starts from this set, breaks one
    thing and expects exactly one FAIL line naming it."""
    paths = [
        write(tmp_path, f"{workload}.out", result_line({"wall_s": limit / 10}))
        for workload, limit in WALL_LIMIT_S.items()
    ]
    paths += [
        write(tmp_path, f"{workload}.trace.out", result_line({"trace.unattributed_frac": 0.001}))
        for workload in ("hvdb_200", "flood_200")
    ]
    return paths


def failures(done):
    assert done.returncode == 1, done.stdout
    return [line for line in done.stdout.splitlines() if "FAIL" in line]


def test_passing_untraced_and_traced_pair_exits_0(tmp_path):
    done = gate(*passing_set(tmp_path))
    assert done.returncode == 0, done.stdout
    assert "perf-gate: OK (5 outputs" in done.stdout


@pytest.mark.parametrize("workload", sorted(WALL_LIMIT_S))
def test_wall_s_at_twice_the_ceiling_fails(tmp_path, workload):
    paths = passing_set(tmp_path)
    limit = WALL_LIMIT_S[workload]
    slow = write(tmp_path, f"{workload}.out", result_line({"wall_s": 2 * limit}))
    assert failures(gate(*paths)) == [
        f"perf-gate: FAIL: {slow}: wall_s = {2 * limit:.4g} is not below {limit:g}"
    ]


@pytest.mark.parametrize("workload", sorted(WALL_LIMIT_S))
def test_missing_workload_fails(tmp_path, workload):
    paths = [p for p in passing_set(tmp_path) if os.path.basename(p) != f"{workload}.out"]
    assert failures(gate(*paths)) == [
        f"perf-gate: FAIL: {workload}: no untraced output ({workload}.out)"
    ]


def test_incorrect_result_fails(tmp_path):
    paths = passing_set(tmp_path)
    path = write(tmp_path, "hvdb_200.out", result_line({"wall_s": 1.0}, correct=False))
    assert failures(gate(*paths)) == [
        f'perf-gate: FAIL: {path}: did not report "correct": true'
    ]


@pytest.mark.parametrize(
    "name, metrics, problem",
    [
        (
            "hvdb_200.trace.out",
            {"trace.unattributed_frac": 0.05},
            "trace.unattributed_frac = 0.05 is not below 0.05",
        ),
        ("hvdb_200.trace.out", {"wall_s": 1.0}, "reports no trace.unattributed_frac"),
        ("hvdb_200.out", {"frames_per_s": 1.0}, "reports no wall_s"),
    ],
    ids=["unattributed-at-limit", "unattributed-missing", "wall-missing"],
)
def test_metric_at_its_limit_or_missing_fails(tmp_path, name, metrics, problem):
    paths = passing_set(tmp_path)
    path = write(tmp_path, name, result_line(metrics))
    assert failures(gate(*paths)) == [f"perf-gate: FAIL: {path}: {problem}"]


@pytest.mark.parametrize("last_line", ["", "wall_s = 0.5 s", "[1, 2"])
def test_last_line_that_is_no_result_fails(tmp_path, last_line):
    paths = passing_set(tmp_path)
    path = tmp_path / "sweep_phy_smoke.out"
    path.write_text(f"{result_line({'wall_s': 0.5})}\n{last_line}\n")
    [line] = failures(gate(*paths))
    assert line.startswith(f"perf-gate: FAIL: {path}: last line is no result (")


def test_empty_file_fails(tmp_path):
    paths = passing_set(tmp_path)
    path = tmp_path / "sweep_phy_smoke.out"
    path.write_text("")
    [line] = failures(gate(*paths))
    assert line.startswith(f"perf-gate: FAIL: {path}: last line is no result (")


def test_unknown_workload_fails(tmp_path):
    unknown = write(tmp_path, "hvdb_400.out", result_line({"wall_s": 0.5}))
    [line] = failures(gate(*passing_set(tmp_path), unknown))
    assert line.startswith(f"perf-gate: FAIL: {unknown}: unknown workload")


def test_no_files_fails():
    done = gate()
    assert done.returncode == 1
    assert "no benchmark outputs" in done.stdout
