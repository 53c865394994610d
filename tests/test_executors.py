"""Tests of the pluggable executor backends.

Covers the guarantees the execution layer rests on: exactly the serial,
process and tcp backends are registered and unknown names fail eagerly
with alternatives (RegistryError UX), every backend produces
byte-identical artifacts on the same grid, a warm cache populated under
one executor replays with zero executions under every other, a tcp
worker's heartbeats keep its lease alive past ``stale_after``, runs that
share one cache key are recorded under each run's own identity, a
worker detached by Ctrl-C hands its lease straight back, and every
backend emits the same progress lines (and none at all, spawned tcp
workers included, when progress is off).
"""

import re
import time

import pytest

from repro.experiments.executors import EXECUTORS, make_executor
from repro.experiments.net import Coordinator, protocol, run_net_worker
from repro.experiments.orchestrator import (
    SweepSpec,
    expand_spec,
    export_csv,
    run_sweep,
)
from repro.experiments.scenarios import ScenarioConfig
from repro.registry import RegistryError
from test_net import connect_raw, run_with_tcp, wait_until


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
    def test_exactly_three_backends_registered(self):
        assert set(EXECUTORS.names()) == {"serial", "process", "tcp"}

    def test_unknown_name_lists_alternatives(self):
        # a removed backend name fails exactly like a typo
        for name in ("warp", "queue", "thread"):
            with pytest.raises(RegistryError, match="process, serial, tcp"):
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
        for backend in ("serial", "process", "tcp"):
            cache_dir = str(tmp_path / f"cache-{backend}")
            if backend == "tcp":
                results = run_with_tcp(spec, cache_dir=cache_dir)
            else:
                results = run_sweep(
                    spec, workers=2, cache_dir=cache_dir, executor=backend
                )
            assert all(not r.from_cache for r in results)
            blobs[backend] = csv_bytes(results, tmp_path / f"{backend}.csv")
        assert blobs["process"] == blobs["serial"]
        assert blobs["tcp"] == blobs["serial"]

    def test_warm_cache_replays_under_every_backend(self, tmp_path):
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        reference = run_sweep(spec, workers=1, cache_dir=cache_dir, executor="serial")
        for backend in ("process", "tcp"):
            # no workers attached anywhere: with zero cache misses no
            # backend needs any (and tcp never binds)
            replay = run_sweep(spec, workers=0, cache_dir=cache_dir, executor=backend)
            assert all(r.from_cache for r in replay)
            assert [r.metrics for r in replay] == [r.metrics for r in reference]


class TestLeaseProtocol:
    def test_heartbeat_keeps_lease_alive(self):
        # a worker busy for longer than stale_after keeps its lease while
        # its heartbeat frames arrive; once they stop, the poll loop
        # reclaims the lease
        coord = Coordinator(port=0, stale_after=0.5)
        coord.start()
        try:
            (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
            task_id = run.cache_key()
            coord.submit(task_id, run)
            conn, _hello = connect_raw(coord.port, worker="busy")
            conn.send(protocol.FRAME_DRAIN, {})
            kind, _payload = conn.recv()
            assert kind == protocol.FRAME_LEASE

            for _ in range(12):  # 1.2 s of work: over twice stale_after
                time.sleep(0.1)
                conn.send(protocol.FRAME_HEARTBEAT, {"task_id": task_id})
                assert coord.reclaim_stale() == 0

            wait_until(
                lambda: coord.reclaim_stale() == 1,
                message="a lease without heartbeats was never reclaimed",
            )
            conn.close()
        finally:
            coord.close(grace=0.2)


class TestWorkerFaultPaths:
    def test_interrupted_worker_leaves_task_for_reclaim(self):
        # Ctrl-C detaching a worker mid-run sends a best-effort close:
        # the coordinator takes the lease back at once (no stale_after
        # wait), does not count a voluntary detach as a lost worker, and
        # leases the run to the next worker instead of losing it
        coord = Coordinator(port=0, stale_after=30.0)
        coord.start()
        try:
            (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
            task_id = run.cache_key()
            coord.submit(task_id, run)

            def interrupt(run):
                raise KeyboardInterrupt

            with pytest.raises(KeyboardInterrupt):
                run_net_worker(
                    ("127.0.0.1", coord.port),
                    worker_id="w1",
                    poll_interval=0.01,
                    execute=interrupt,
                    max_retries=2,
                )
            # (outstanding, leased, connected): still owed, nobody holds it
            wait_until(
                lambda: coord.status() == (1, 0, 0),
                message="the interrupted worker's lease was never released",
            )
            assert coord.stats().workers_lost == 0

            executed = run_net_worker(
                ("127.0.0.1", coord.port),
                worker_id="w2",
                poll_interval=0.01,
                max_tasks=1,
                max_retries=2,
            )
            assert executed == 1
            results, errors = coord.drain(timeout=5.0)
            assert errors == {}
            assert list(results) == [task_id]
        finally:
            coord.close(grace=0.2)

    def test_duplicate_cache_keys_recorded_under_each_runs_identity(self, tmp_path):
        # a pure label axis expands to runs with identical configs (one
        # shared cache key) but distinct run ids; the tcp backend leases
        # the key once and must stamp each recorded copy with its own
        # identity, byte-matching an in-process backend's artifacts
        spec = tiny_spec(
            grid={"variant": [{"variant": "a"}, {"variant": "b"}]}, seeds=(1,)
        )
        runs = expand_spec(spec)
        assert len({run.cache_key() for run in runs}) == 1
        reference = run_sweep(spec, executor="serial")
        over_tcp = run_with_tcp(spec, n_workers=1)
        assert [r.run_id for r in over_tcp] == [r.run_id for r in reference]
        assert [r.params for r in over_tcp] == [r.params for r in reference]
        assert csv_bytes(over_tcp, tmp_path / "tcp.csv") == csv_bytes(
            reference, tmp_path / "ref.csv"
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
    """serial/tcp must emit the same progress stream as the process pool."""

    def run_and_capture(self, capsys, backend, tmp_path):
        spec = tiny_spec()
        cache_dir = str(tmp_path / f"cache-{backend}")
        if backend == "tcp":
            run_with_tcp(spec, cache_dir=cache_dir, progress=True)
        else:
            run_sweep(
                spec, workers=2, cache_dir=cache_dir, executor=backend, progress=True
            )
        return _progress_lines(capsys)

    @pytest.mark.parametrize("backend", ["serial", "process", "tcp"])
    def test_backend_emits_full_progress_stream(self, capsys, tmp_path, backend):
        lines = self.run_and_capture(capsys, backend, tmp_path)
        schedule = [line for line in lines if "to execute on" in line]
        assert len(schedule) == 1
        assert f"[{backend}" in schedule[0]
        assert "4 runs: 0 cache hits, 4 to execute on" in schedule[0]
        assert sorted(_per_run_ids(lines, 4)) == sorted(
            run.run_id for run in expand_spec(tiny_spec())
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

    def test_progress_false_silences_spawned_tcp_workers_too(self, capfd, tmp_path):
        # the only test spawning a real `python -m repro.experiments
        # worker --connect` subprocess: it inherits stdout/stderr (capfd
        # sees both), and a progress-suppressed sweep must stay silent
        # end to end
        results = run_sweep(
            tiny_spec(grid={}, seeds=(1,)),
            workers=1,
            cache_dir=str(tmp_path / "cache"),
            executor="tcp",
            executor_options={"port": 0, "poll_interval": 0.05},
            progress=False,
        )
        assert len(results) == 1 and not results[0].from_cache
        out, err = capfd.readouterr()
        assert out == "" and err == ""


class TestCliSurface:
    def test_executors_subcommand_lists_backends(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["executors"]) == 0
        rows = capsys.readouterr().out.splitlines()[3:]  # title, header, rule
        assert sorted(row.split("|")[0].strip() for row in rows) == [
            "process",
            "serial",
            "tcp",
        ]

    def test_run_rejects_unknown_executor(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "smoke", "--executor", "warp", "--format", "none"]) == 2
        err = capsys.readouterr().err
        assert "warp" in err and "serial" in err

    def test_worker_subcommand_max_tasks_zero_exits(self, capsys):
        from repro.experiments.__main__ import main

        # a zero budget returns before any connection attempt
        assert main(["worker", "--connect", "127.0.0.1:9", "--max-tasks", "0"]) == 0
        assert "executed 0 run(s)" in capsys.readouterr().out
        # --connect is the worker's one mode, so it is required
        with pytest.raises(SystemExit) as exit_info:
            main(["worker", "--max-tasks", "0"])
        assert exit_info.value.code == 2
        assert "--connect" in capsys.readouterr().err
