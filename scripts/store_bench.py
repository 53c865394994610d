"""Compare cold-load throughput of the json and sqlite result stores.

Synthesizes a few hundred cached runs (fabricated ``RunResult`` records
keyed by the real cache keys of an inflated smoke grid -- no simulation
executed), writes them through both backends, and times one batched
``scan`` over every key from each (the store-layer call warm replays,
``merge`` and ``export`` sit on).  The point of the sqlite backend is
that a full scan is one file open + a few batched ``IN`` queries
instead of N ``open()``/``json.load`` calls, so the ratio should
comfortably favour sqlite as N grows; machines and filesystems vary too
much for a hard threshold, so the ratio is **logged, not asserted**
(the byte-equality and zero-exec invariants in ``make store-smoke`` are
the correctness gates).

Usage::

    PYTHONPATH=src python scripts/store_bench.py [--runs 200] [--repeat 3]
"""

import argparse
import dataclasses
import shutil
import sys
import tempfile
import time

from repro.experiments.orchestrator import (
    RunResult,
    expand_spec,
    load_cached_results,
)
from repro.experiments.specs import get_spec
from repro.experiments.stores import make_store


def synthesize_runs(n_runs: int):
    """(cache_key, RunResult) pairs for an inflated smoke grid."""
    spec = get_spec("smoke")
    n_points = len(expand_spec(spec)) // len(spec.seeds)
    seeds_needed = max(1, -(-n_runs // n_points))
    spec = dataclasses.replace(spec, seeds=tuple(range(1, seeds_needed + 1)))
    runs = expand_spec(spec)[:n_runs]
    pairs = []
    for i, run in enumerate(runs):
        pairs.append(
            (
                run.cache_key(),
                RunResult(
                    run_id=run.run_id,
                    params=dict(run.params),
                    seed=run.seed,
                    duration=run.duration,
                    metrics={"pdr": 0.9, "mean_delay": 0.1, "ctrl_pkts": i},
                    wall_time=0.01 * (i + 1),
                ),
            )
        )
    return spec, pairs


def time_scan(target: str, keys, repeat: int) -> float:
    """Best-of-N wall time of one batched ``scan`` over all keys.

    Timed at the store layer: ``load_cached_results`` spends most of its
    time recomputing content-hash cache keys (identical work for every
    backend), which would mask the persistence cost being compared.
    """
    best = float("inf")
    store = make_store(target)
    try:
        for _ in range(repeat):
            start = time.perf_counter()
            loaded = sum(1 for _key, result in store.scan(keys) if result is not None)
            elapsed = time.perf_counter() - start
            if loaded != len(keys):
                raise SystemExit(
                    f"store_bench: {target} returned {loaded}/{len(keys)} entries"
                )
            best = min(best, elapsed)
    finally:
        store.close()
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=200, help="cached runs to synthesize")
    parser.add_argument("--repeat", type=int, default=3, help="timed repetitions (best-of)")
    args = parser.parse_args(argv)

    spec, pairs = synthesize_runs(args.runs)
    workdir = tempfile.mkdtemp(prefix="store-bench-")
    try:
        targets = {
            "json": f"{workdir}/json-cache",
            "sqlite": f"sqlite:{workdir}/cache.db",
        }
        for target in targets.values():
            store = make_store(target)
            for key, result in pairs:
                store.put(key, result)
            store.close()
        keys = [key for key, _result in pairs]
        timings = {
            name: time_scan(target, keys, args.repeat)
            for name, target in targets.items()
        }
        # a full replay through the orchestrator must see every entry
        results, missing = load_cached_results(spec, targets["sqlite"])
        if missing or len(results) != len(pairs):
            raise SystemExit("store_bench: sqlite replay incomplete")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ratio = timings["json"] / timings["sqlite"] if timings["sqlite"] > 0 else float("inf")
    print(
        f"store_bench: {len(pairs)} cached runs, best of {args.repeat}: "
        f"json {timings['json'] * 1000:.1f} ms, "
        f"sqlite {timings['sqlite'] * 1000:.1f} ms "
        f"(json/sqlite ratio {ratio:.2f}x; informational, not asserted)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
