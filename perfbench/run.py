"""Benchmark of the HVDB simulator and its experiment layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload hvdb_200 --seed 0 --seconds 30 --trace 0

Workloads: ``hvdb_200``, ``flood_200``, ``sweep_phy_smoke`` (see
``perfbench/README.md`` for why each).  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped; ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics.  Both
check every operation's output against ``perfbench/reference.json``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it print every metric by name, unit and sample count.

``--write-reference`` re-runs every input the seeds can select and
rewrites ``reference.json``; only a change that is meant to alter the
simulated statistics should need it.
"""

from __future__ import annotations

import argparse
import compileall
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
REFERENCE = os.path.join(HERE, "reference.json")

#: fresh interpreters timed importing the package (set-up)
IMPORT_SAMPLES = 9
#: scenario builds timed per sim-workload run (set-up)
SIM_SETUP_BUILDS = 5
#: report re-derivations timed after each sim operation (replay_s)
SIM_REPLAYS = 20
#: warm replays timed after each cold sweep (replay_s)
SWEEP_REPLAYS = 3
#: trace.unattributed_frac above this is flagged
UNATTRIBUTED_LIMIT = 0.05

END_TO_END = (
    ("wall_s", "s"),
    ("frames_per_s", "1/s"),
    ("runs_per_s", "1/s"),
    ("replay_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problem: Optional[str]) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            print(f"FAILED: {problem}", file=sys.stderr, flush=True)


def build() -> None:
    """Byte-compile the sources, so set-up times measure imports, not compiling."""
    if not compileall.compile_dir(SRC, quiet=1):
        raise SystemExit("perfbench: compiling src/ failed")


def import_seconds() -> List[float]:
    """Seconds fresh interpreters take to import the experiment package."""
    code = (
        "import time; started = time.perf_counter(); import repro.experiments; "
        "print(time.perf_counter() - started)"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env, cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


def peak_rss_mib() -> float:
    """Peak resident set of this process or any child it waited for."""
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kib / 1024.0


def fastest(values: List[float]) -> float:
    """The fastest of repeated timings.

    Not the median: on a machine whose CPU another tenant slows by ~1.5x
    for seconds to minutes at a time, the median of a run measures how
    long that lasted, while the fastest repetition (Python's ``timeit``
    rule) measures the program.
    """
    return min(values) if values else 0.0


def sliced_fastest(slices: List[List[float]]) -> float:
    """One operation's time as the sum of each slice's fastest repetition.

    A 5 s operation rarely runs all in a fast phase; a half-second slice
    of it usually does at least once.
    """
    return sum(min(column) for column in zip(*slices)) if slices else 0.0


def print_samples(name: str, values: List[float]) -> None:
    """The spread of one timing's samples: min, quartiles and max."""
    if len(values) >= 2:
        q1, q2, q3 = statistics.quantiles(values, n=4)
        print(f"  {name} samples: n={len(values)} min {min(values):.6g} q1 {q1:.6g} "
              f"median {q2:.6g} q3 {q3:.6g} max {max(values):.6g}")


def guarded(action, *args) -> Tuple[Any, Optional[str]]:
    """Run one operation; an exception becomes its failure reason."""
    try:
        return action(*args), None
    except Exception as exc:  # the benchmark reports, counts and goes on
        return None, f"{type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# untraced: the end-to-end metrics
# ---------------------------------------------------------------------------


def measure_sim(workload, seconds: float, tally: Tally) -> Dict[str, Tuple[float, str, int]]:
    import workloads

    imports = import_seconds()
    builds = [workload.setup_seconds() for _ in range(SIM_SETUP_BUILDS)]
    slices: List[List[float]] = []
    replays: List[float] = []
    frames = 0
    counters: Dict[str, float] = {}
    deadline = time.perf_counter() + seconds
    while not tally.attempted or time.perf_counter() < deadline:
        gc.collect()
        outcome, problem = guarded(workload.execute)
        if outcome is not None:
            result, op_slices = outcome
            slices.append(op_slices)
            row = result.report.flat_row()
            problem = workload.check(row)
            for _ in range(SIM_REPLAYS):
                started = time.perf_counter()
                again = workloads.report_of(result.scenario, workload.run.duration).flat_row()
                replays.append(time.perf_counter() - started)
                if workloads.row_text(again) != workloads.row_text(row):
                    problem = problem or f"{workload.name}: re-derived report differs"
            frames = result.scenario.network.stats.transmissions
            counters = workloads.sim_counters(result.scenario)
            # drop the scenario before the next one is built, so the peak
            # resident set is one run's
            del result, outcome
        tally.record(problem)
    print_counters(counters)
    walls = [sum(op_slices) for op_slices in slices]
    for name, values in (("wall_s", walls), ("replay_s", replays), ("import", imports), ("build", builds)):
        print_samples(name, values)
    wall = sliced_fastest(slices)
    return {
        "wall_s": (wall, "s", len(slices)),
        "frames_per_s": (workloads.ratio(frames, wall), "1/s", len(slices)),
        "runs_per_s": (workloads.ratio(1, wall), "1/s", len(slices)),
        "replay_s": (fastest(replays), "s", len(replays)),
        "setup_s": (fastest(imports) + fastest(builds), "s", min(len(imports), len(builds))),
        "peak_rss_mb": (peak_rss_mib(), "MiB", 1),
    }


def measure_sweep(workload, seconds: float, tally: Tally) -> Dict[str, Tuple[float, str, int]]:
    import workloads

    imports = import_seconds()
    setups: List[float] = []
    colds: List[float] = []
    replays: List[float] = []
    frames = runs = 0
    deadline = time.perf_counter() + seconds
    while not colds or time.perf_counter() < deadline:
        store, expanded, setup = workload.open_store()
        setups.append(setup)
        runs = len(expanded)
        gc.collect()
        outcome, problem = guarded(workload.cold, store)
        if outcome is not None:
            results, wall = outcome
            colds.append(wall)
            frames = sum(result.metrics["total_tx"] for result in results)
            problem = workload.check_cold(results)
        tally.record(problem)
        for _ in range(SWEEP_REPLAYS if outcome is not None else 0):
            replayed, problem = guarded(workload.replay, store)
            if replayed is not None:
                replays.append(replayed.wall_s)
                problem = workload.check_warm(replayed)
            tally.record(problem)
        workload.close_store(store)
        if outcome is None and time.perf_counter() >= deadline:
            break
    for name, values in (("wall_s", colds), ("replay_s", replays), ("import", imports), ("setup", setups)):
        print_samples(name, values)
    wall = fastest(colds)
    return {
        "wall_s": (wall, "s", len(colds)),
        "frames_per_s": (workloads.ratio(frames, wall), "1/s", len(colds)),
        "runs_per_s": (workloads.ratio(runs, wall), "1/s", len(colds)),
        "replay_s": (fastest(replays), "s", len(replays)),
        "setup_s": (fastest(imports) + fastest(setups), "s", min(len(imports), len(setups))),
        "peak_rss_mb": (peak_rss_mib(), "MiB", 1),
    }


# ---------------------------------------------------------------------------
# traced: the per-layer metrics
# ---------------------------------------------------------------------------


def trace_figures(tracer, totals) -> Dict[str, float]:
    import layers
    from tracer import root_seconds

    figures = layers.span_metrics(totals)
    attributed = sum(figures[f"{layer}.self_s"] for layer in layers.LAYERS)
    figures["trace.spans"] = len(tracer)
    figures["trace.unattributed_frac"] = 1.0 - attributed / root_seconds(tracer)
    return figures


def trace_sim(workload, seconds: float, tally: Tally):
    import layers
    import workloads
    from tracer import Tracer, root_seconds, totals_by_name

    untraced: List[float] = []
    traced: List[float] = []
    samples: List[Dict[str, float]] = []
    tracer = None
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        gc.collect()
        row = None
        outcome, problem = guarded(workload.execute)
        if outcome is not None:
            result, op_slices = outcome
            untraced.append(sum(op_slices))
            row = result.report.flat_row()
            problem = workload.check(row)
            del result, outcome
        tally.record(problem)

        gc.collect()
        tracer = Tracer()
        with layers.install(tracer), tracer.span("bench.run"):
            outcome, problem = guarded(workload.execute)
        if outcome is not None:
            result = outcome[0]
            traced.append(root_seconds(tracer))
            traced_row = result.report.flat_row()
            problem = workload.check(traced_row)
            if row is not None and workloads.row_text(traced_row) != workloads.row_text(row):
                problem = problem or f"{workload.name}: traced statistics differ from untraced"
            figures = trace_figures(tracer, totals_by_name(tracer))
            figures.update(workloads.sim_counters(result.scenario))
            samples.append(figures)
            del result, outcome
        tally.record(problem)
        if not samples and time.perf_counter() >= deadline:
            break
    return samples, untraced, traced, tracer


def trace_sweep(workload, seconds: float, tally: Tally):
    import layers
    import workloads
    from tracer import NameTotals, Tracer, totals_by_name

    untraced: List[float] = []
    traced: List[float] = []
    samples: List[Dict[str, float]] = []
    tracer = None
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        store, _runs, _setup = workload.open_store()
        gc.collect()
        outcome, problem = guarded(workload.cold, store)
        if outcome is not None:
            untraced.append(outcome[1])
            problem = workload.check_cold(outcome[0])
        tally.record(problem)
        workload.close_store(store)

        store, runs, _setup = workload.open_store()
        gc.collect()
        tracer = Tracer()
        with layers.install(tracer):
            with tracer.span("bench.cold"):
                cold, cold_problem = guarded(workload.cold, store)
            with tracer.span("bench.warm"):
                warm, warm_problem = guarded(workload.replay, store)
        if cold is not None:
            results, wall = cold
            traced.append(wall)
            cold_problem = workload.check_cold(results)
        tally.record(cold_problem)
        if warm is not None:
            warm_problem = workload.check_warm(warm)
        tally.record(warm_problem)
        if cold is not None and warm is not None:
            totals = totals_by_name(tracer)
            figures = trace_figures(tracer, totals)
            exec_s = sum(result.wall_time for result in results)
            dispatch = totals.get("executors.map_runs", NameTotals())
            figures.update({
                "orchestrator.runs": len(runs),
                "executors.exec_s": exec_s,
                "executors.busy_frac": workloads.ratio(
                    exec_s, workloads.SWEEP_WORKERS * dispatch.total_s
                ),
                "executors.pickle_bytes": workloads.pickle_bytes(runs, results),
                "stores.hits": store.hits,
                "stores.misses": store.misses,
                "stores.corrupt": store.corrupt_entries,
            })
            samples.append(figures)
        workload.close_store(store)
        if not samples and time.perf_counter() >= deadline:
            break
    return samples, untraced, traced, tracer


def per_layer(samples, untraced, traced) -> Dict[str, Tuple[float, str, int]]:
    import layers

    metrics = {}
    for name, unit in layers.PER_LAYER:
        values = [sample.get(name, 0) for sample in samples] or [0]
        # a count stays a whole number: the lower median of identical counts
        exact = unit in ("count", "bytes")
        middle = statistics.median_low(values) if exact else statistics.median(values)
        metrics[name] = (middle, unit, len(samples))
    overhead = fastest(traced) / fastest(untraced) - 1.0 if untraced and traced else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio", min(len(untraced), len(traced)))
    return metrics


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def print_counters(counters: Dict[str, float]) -> None:
    for name in sorted(counters):
        print(f"  counter {name} = {counters[name]}")


def print_metrics(metrics: Dict[str, Tuple[float, str, int]]) -> None:
    for name, (value, unit, samples) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name} = {shown} {unit} (n={samples})")


def result_line(metrics: Dict[str, Tuple[float, str, int]], tally: Tally) -> str:
    return json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit, _samples) in metrics.items()
        },
    })


def write_reference() -> None:
    import workloads
    from repro.experiments import orchestrator, runner

    reference: Dict[str, Dict[str, Any]] = {name: {} for name in workloads.WORKLOADS}
    for name, protocol in workloads.SIM_WORKLOADS.items():
        seed = workloads.SIM_SEED
        run = workloads.e2_point(protocol, seed)
        result = runner.run_scenario(run.config, duration=run.duration)
        reference[name][str(seed)] = result.report.flat_row()
        print(f"{name} seed {seed}: {result.scenario.network.stats.transmissions} frames")
    workdir = os.path.join(OUT, "reference-work")
    for index in range(workloads.SWEEP_SEED_LISTS):
        sweep = workloads.SweepWorkload(workloads.sweep_spec(index), None, workdir)
        store, _runs, _setup = sweep.open_store()
        results, _wall = sweep.cold(store)
        csv_path = os.path.join(workdir, f"{index}.csv")
        orchestrator.export_csv(results, csv_path)
        reference[workloads.SWEEP_WORKLOAD][str(index)] = {
            "seeds": list(sweep.spec.seeds),
            "csv_sha256": workloads.file_digest(csv_path),
        }
        sweep.close_store(store)
        print(f"{workloads.SWEEP_WORKLOAD} seed list {index}: {len(results)} runs")
    shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("hvdb_200", "flood_200", "sweep_phy_smoke"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    build()
    sys.path.insert(0, SRC)
    import workloads

    if args.write_reference:
        write_reference()
        return 0
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)

    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    tally = Tally()
    try:
        if args.workload in workloads.SIM_WORKLOADS:
            workload = workloads.sim_workload(args.workload, reference)
            label = f"{args.workload} (scenario seed {workload.run.seed})"
        else:
            workload = workloads.sweep_workload(args.seed, reference, workdir)
            seeds = workload.spec.seeds
            label = f"{args.workload} (seeds {seeds[0]}..{seeds[-1]})"
        print(f"perfbench {label}, {args.seconds:g} s, trace {args.trace}")
        if args.trace:
            trace = trace_sim if args.workload in workloads.SIM_WORKLOADS else trace_sweep
            samples, untraced, traced, tracer = trace(workload, args.seconds, tally)
            metrics = per_layer(samples, untraced, traced)
            if tracer is not None:
                tracer.write(os.path.join(OUT, f"{args.workload}.spans"))
            unattributed = metrics["trace.unattributed_frac"][0]
            if unattributed > UNATTRIBUTED_LIMIT:
                print(
                    f"WARNING: trace.unattributed_frac {unattributed:.3f} exceeds "
                    f"{UNATTRIBUTED_LIMIT}: named layers miss part of the traced wall time",
                    file=sys.stderr,
                )
        elif args.workload in workloads.SIM_WORKLOADS:
            metrics = measure_sim(workload, args.seconds, tally)
        else:
            metrics = measure_sweep(workload, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_metrics(metrics)
    print(f"  failed_frac = {workloads.ratio(tally.failed, tally.attempted):.6g} ratio "
          f"({tally.failed} of {tally.attempted} operations)")
    print(result_line(metrics, tally))
    return 0


if __name__ == "__main__":
    sys.exit(main())
