"""Tests of the executor backends.

Covers the guarantees the execution layer rests on: exactly the serial
and process backends exist and unknown names fail eagerly with
alternatives (RegistryError UX), both backends produce
byte-identical artifacts on the same grid, a warm cache populated under
one executor replays with zero executions under the other, runs that
share one cache key come back under each run's own identity (cold,
warm and from the cache alone), a pool worker that dies mid-sweep
fails the sweep without losing the runs that completed, and both
backends emit the same progress lines (and none at all when progress
is off).  The CLI has no subcommand listing backends and no
``--store`` option.
"""

import os
import re

import pytest

from repro.experiments.executors import EXECUTORS, make_executor
from repro.experiments.orchestrator import (
    SweepError,
    SweepSpec,
    expand_spec,
    export_csv,
    register_collector,
    run_sweep,
    sweep,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.experiments.stores import JsonStore
from repro.registry import RegistryError


def tiny_spec(**overrides) -> SweepSpec:
    base = dict(
        name="tiny",
        base=ScenarioConfig(
            protocol="flooding",
            n_nodes=12,
            area_size=500.0,
            radio_range=250.0,
            max_speed=2.0,
            group_size=4,
            traffic_start=3.0,
            traffic_interval=2.0,
        ),
        grid={"n_nodes": [10, 14]},
        seeds=(1, 2),
        duration=10.0,
    )
    base.update(overrides)
    return SweepSpec(**base)


def csv_bytes(results, path) -> bytes:
    export_csv(results, str(path))
    with open(path, "rb") as fh:
        return fh.read()


class TestExecutorRegistry:
    def test_exactly_two_backends_registered(self):
        assert set(EXECUTORS) == {"serial", "process"}

    def test_unknown_name_lists_alternatives(self):
        # a removed backend name fails exactly like a typo
        for name in ("warp", "queue", "thread", "tcp"):
            with pytest.raises(RegistryError, match="process, serial"):
                make_executor(name)

    def test_run_sweep_rejects_unknown_executor_eagerly(self, tmp_path):
        # like a typo'd protocol: fail before the cache is even created
        cache_dir = tmp_path / "cache"
        with pytest.raises(RegistryError, match="warp"):
            run_sweep(tiny_spec(seeds=(1,)), cache_dir=str(cache_dir), executor="warp")
        assert not cache_dir.exists()


class TestBackendEquivalence:
    def test_all_backends_byte_identical_artifacts(self, tmp_path):
        spec = tiny_spec()
        blobs = {}
        for backend in ("serial", "process"):
            cache_dir = str(tmp_path / f"cache-{backend}")
            results = run_sweep(spec, workers=2, cache_dir=cache_dir, executor=backend)
            assert all(not r.from_cache for r in results)
            blobs[backend] = csv_bytes(results, tmp_path / f"{backend}.csv")
        assert blobs["process"] == blobs["serial"]

    def test_warm_cache_replays_under_every_backend(self, tmp_path):
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        reference = run_sweep(spec, workers=1, cache_dir=cache_dir, executor="serial")
        for backend in ("serial", "process"):
            replay = run_sweep(spec, workers=2, cache_dir=cache_dir, executor=backend)
            assert all(r.from_cache for r in replay)
            assert [r.metrics for r in replay] == [r.metrics for r in reference]


class TestSharedCacheKeys:
    """A pure label axis expands to runs with identical configs (one shared
    cache key) but distinct run ids; each must come back under its own."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_each_run_keeps_its_own_identity(self, tmp_path, backend):
        spec = tiny_spec(
            grid={"variant": [{"variant": "a"}, {"variant": "b"}]}, seeds=(1,)
        )
        runs = expand_spec(spec)
        assert len({run.cache_key() for run in runs}) == 1
        run_ids = [run.run_id for run in runs]
        params = [dict(run.params) for run in runs]
        assert len(set(run_ids)) == 2

        cache_dir = str(tmp_path / "cache")
        cold = run_sweep(spec, workers=2, cache_dir=cache_dir, executor=backend)
        warm = run_sweep(spec, workers=2, cache_dir=cache_dir, executor=backend)
        loaded, _, missing = sweep(spec, cache_dir=cache_dir, cache_only=True)
        assert missing == []
        assert not any(r.from_cache for r in cold)
        assert all(r.from_cache for r in warm + loaded)
        for results in (cold, warm, loaded):
            assert [r.run_id for r in results] == run_ids
            assert [r.params for r in results] == params
        cold_csv = csv_bytes(cold, tmp_path / "cold.csv")
        assert csv_bytes(warm, tmp_path / "warm.csv") == cold_csv
        assert csv_bytes(loaded, tmp_path / "loaded.csv") == cold_csv


#: pid of the test process while the dying collector is armed (None:
#: disarmed); forked pool workers inherit it at fork time
_ARMED_IN = {"pid": None}


@register_collector("die_in_pool_at_n14")
def _die_in_pool_at_n14(result):
    # only ever in a forked child: a serial fallback runs in the test
    # process itself, whose pid is the armed one
    armed_pid = _ARMED_IN["pid"]
    if armed_pid not in (None, os.getpid()) and result.config.n_nodes == 14:
        os._exit(9)
    return {}


class TestPoolWorkerDeath:
    @pytest.fixture()
    def armed(self):
        _ARMED_IN["pid"] = os.getpid()
        yield
        _ARMED_IN["pid"] = None

    def test_dead_worker_fails_the_sweep_and_a_rerun_executes_the_rest(
        self, tmp_path, armed
    ):
        spec = tiny_spec(grid={"n_nodes": [10, 12, 14, 16]}, collector="die_in_pool_at_n14")
        runs = expand_spec(spec)
        assert len(runs) == 8
        cache_dir = str(tmp_path / "cache")

        with pytest.raises(SweepError) as failure:
            run_sweep(spec, workers=2, cache_dir=cache_dir, executor="process")
        completed = int(re.search(r"\((\d+) completed", str(failure.value)).group(1))
        assert f"{len(runs) - completed} of {len(runs)} runs failed" in str(failure.value)
        cached_keys = set(JsonStore(cache_dir).keys())
        assert len(cached_keys) == completed
        dying = {run.cache_key() for run in runs if run.config.n_nodes == 14}
        assert not dying & cached_keys

        _ARMED_IN["pid"] = None
        rerun = run_sweep(spec, workers=2, cache_dir=cache_dir, executor="process")
        executed = {r.run_id for r in rerun if not r.from_cache}
        assert executed == {run.run_id for run in runs if run.cache_key() not in cached_keys}

        reference = run_sweep(spec, workers=1, executor="serial")
        assert csv_bytes(rerun, tmp_path / "rerun.csv") == csv_bytes(
            reference, tmp_path / "serial.csv"
        )


def _progress_lines(capsys):
    return [line for line in capsys.readouterr().err.splitlines() if line]


def _per_run_ids(lines, total):
    ids = []
    for line in lines:
        match = re.search(rf"\(\d+/{total}\) (\S+)", line)
        if match:
            ids.append(match.group(1))
    return ids


class TestProgressParity:
    """serial must emit the same progress stream as the process pool."""

    @pytest.mark.parametrize("backend", ["serial", "process"])
    def test_backend_emits_full_progress_stream(self, capsys, tmp_path, backend):
        spec = tiny_spec()
        run_sweep(
            spec,
            workers=2,
            cache_dir=str(tmp_path / f"cache-{backend}"),
            executor=backend,
            progress=True,
        )
        lines = _progress_lines(capsys)
        schedule = [line for line in lines if "to execute on" in line]
        assert len(schedule) == 1
        assert f"[{backend}" in schedule[0]
        assert "4 runs: 0 cache hits, 4 to execute on" in schedule[0]
        assert sorted(_per_run_ids(lines, 4)) == sorted(
            run.run_id for run in expand_spec(spec)
        )
        assert any("done: 0 cached + 4 executed" in line for line in lines)

    def test_progress_false_is_silent(self, capsys, tmp_path):
        run_sweep(
            tiny_spec(seeds=(1,)),
            cache_dir=str(tmp_path / "cache"),
            executor="serial",
            progress=False,
        )
        assert _progress_lines(capsys) == []


class TestCliSurface:
    @pytest.mark.parametrize(
        "argv",
        [["executors"], ["stores"], ["migrate"], ["run", "smoke", "--store", "json"]],
        ids=["executors", "stores", "migrate", "store-option"],
    )
    def test_backend_listing_and_store_choice_are_gone(self, argv, capsys):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert capsys.readouterr().out == ""

    def test_run_rejects_unknown_executor(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "smoke", "--executor", "warp", "--format", "none"]) == 2
        err = capsys.readouterr().err
        assert "warp" in err and "process, serial" in err
