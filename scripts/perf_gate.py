#!/usr/bin/env python
"""Judge the benchmark outputs of `make perf-check` (the slowdown gate).

Usage::

    python scripts/perf_gate.py .ci/perf-check/*.out

Each argument is the standard output of one ``perfbench/run.py`` run,
named ``<workload>.out`` (untraced) or ``<workload>.trace.out``
(``--trace 1``); its last line is the run's result JSON.  Every file
must report ``"correct": true``.  An untraced file must report a
``wall_s`` below its workload's ceiling in :data:`WALL_LIMIT_S`, and a
traced file a ``trace.unattributed_frac`` below
:data:`UNATTRIBUTED_LIMIT`.  Every workload in :data:`WALL_LIMIT_S` must
have its untraced ``<workload>.out`` among the files, so dropping a
workload from the run cannot weaken the gate.  An unknown workload, a
missing metric or no files at all fails.  Exits 0 if every file passes
and no workload is missing, else 1.
"""

import json
import os
import sys

#: about 10x the median wall_s of each workload on a 2-vCPU shared VM
#: (2.97 s, 0.443 s, 0.548 s), so only a catastrophic slowdown fails
WALL_LIMIT_S = {"hvdb_200": 30.0, "flood_200": 4.5, "sweep_phy_smoke": 5.5}
#: the largest share of a traced run's time left outside the named layers
UNATTRIBUTED_LIMIT = 0.05


def judge(path: str) -> str:
    """The problem with one output file, or "" if it passes."""
    name = os.path.basename(path)
    traced = name.endswith(".trace.out")
    workload = name[: -len(".trace.out" if traced else ".out")]
    if not name.endswith(".out") or workload not in WALL_LIMIT_S:
        return f"unknown workload (expected one of {', '.join(WALL_LIMIT_S)})"
    try:
        with open(path, encoding="utf-8") as fh:
            result = json.loads((fh.read().splitlines() or [""])[-1])
    except (OSError, ValueError) as exc:
        return f"last line is no result ({exc})"
    if not isinstance(result, dict) or result.get("correct") is not True:
        return 'did not report "correct": true'
    metric = "trace.unattributed_frac" if traced else "wall_s"
    limit = UNATTRIBUTED_LIMIT if traced else WALL_LIMIT_S[workload]
    value = result.get("metrics", {}).get(metric, {}).get("value")
    if not isinstance(value, (int, float)):
        return f"reports no {metric}"
    print(f"perf-gate: {name}: {metric} = {value:.4g} (limit {limit:g})")
    return "" if value < limit else f"{metric} = {value:.4g} is not below {limit:g}"


def main(paths: list) -> int:
    if not paths:
        print("perf-gate: FAIL: no benchmark outputs to judge")
        return 1
    failed = False
    for path in paths:
        problem = judge(path)
        if problem:
            print(f"perf-gate: FAIL: {path}: {problem}")
            failed = True
    names = {os.path.basename(path) for path in paths}
    for workload in WALL_LIMIT_S:
        if f"{workload}.out" not in names:
            print(f"perf-gate: FAIL: {workload}: no untraced output ({workload}.out)")
            failed = True
    if failed:
        return 1
    print(f"perf-gate: OK ({len(paths)} outputs correct and under their limits)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
