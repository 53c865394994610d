"""Tests of pluggable executor backends and the file-lease work queue.

Covers the guarantees the execution layer rests on: all four backends are
registered and unknown names fail eagerly with alternatives (RegistryError
UX), every backend produces byte-identical artifacts on the same grid, a
warm cache populated under one executor replays with zero executions under
every other, the queue's lease protocol (exclusive O_EXCL claims,
heartbeat liveness, stale-lease reclaim after a worker crash, no double
execution under concurrent workers), remote failure reporting, and that
serial/queue emit the same progress lines as the process pool.
"""

import json
import os
import re
import threading
import time

import pytest

from repro.experiments.executors import (
    EXECUTORS,
    WorkQueue,
    make_executor,
    run_worker,
)
from repro.experiments.orchestrator import (
    ResultCache,
    RunResult,
    SweepError,
    SweepSpec,
    expand_spec,
    export_csv,
    register_hook,
    run_sweep,
)
from repro.experiments.scenarios import ScenarioConfig
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


def run_with_queue(spec, queue_dir, n_workers=2, **sweep_kwargs):
    """Drive ``spec`` through the queue backend with in-thread workers.

    The workers are plain ``run_worker`` loops in background threads (the
    hermetic stand-in for `python -m repro.experiments worker` processes);
    they exit once the driver closes the queue.
    """
    # a queue dir reused from an earlier sweep still holds its closed
    # sentinel: a worker that scans before the driver's own reopen() would
    # exit at once and leave a workers=0 sweep waiting forever
    WorkQueue(queue_dir).reopen()
    threads = [
        threading.Thread(
            target=run_worker,
            kwargs=dict(
                queue_dir=queue_dir,
                worker_id=f"w{i}",
                poll_interval=0.02,
                stale_after=30.0,
            ),
        )
        for i in range(n_workers)
    ]
    for thread in threads:
        thread.start()
    try:
        return run_sweep(
            spec,
            workers=0,
            executor="queue",
            executor_options={"queue_dir": queue_dir, "poll_interval": 0.02},
            **sweep_kwargs,
        )
    finally:
        # run_sweep closes the queue on success *and* failure, but make
        # the sentinel unconditional so a test bug cannot hang the join
        WorkQueue(queue_dir).close()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)


class TestExecutorRegistry:
    def test_all_five_backends_registered(self):
        assert {"serial", "process", "thread", "queue", "tcp"} <= set(
            EXECUTORS.names()
        )

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(RegistryError, match="serial.*thread|serial, thread"):
            make_executor("warp")

    def test_run_sweep_rejects_unknown_executor_eagerly(self, tmp_path):
        # like a typo'd protocol: fail before the cache is even created
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(RegistryError, match="warp"):
            run_sweep(tiny_spec(seeds=(1,)), cache_dir=cache_dir, executor="warp")
        assert not os.path.exists(cache_dir)

    def test_spec_level_executor_field(self):
        results = run_sweep(tiny_spec(seeds=(1,), executor="serial"))
        assert len(results) == 2
        with pytest.raises(RegistryError, match="warp"):
            run_sweep(tiny_spec(seeds=(1,), executor="warp"))

    def test_call_site_overrides_spec_field(self):
        # the kwarg wins, so a broken spec default can be overridden
        results = run_sweep(tiny_spec(seeds=(1,), executor="warp"), executor="serial")
        assert len(results) == 2


class TestBackendEquivalence:
    def test_all_backends_byte_identical_artifacts(self, tmp_path):
        from test_net import run_with_tcp

        spec = tiny_spec()
        blobs = {}
        for backend in ("serial", "thread", "process", "queue", "tcp"):
            cache_dir = str(tmp_path / f"cache-{backend}")
            if backend == "queue":
                results = run_with_queue(
                    spec, str(tmp_path / "queue"), cache_dir=cache_dir
                )
            elif backend == "tcp":
                results = run_with_tcp(spec, cache_dir=cache_dir)
            else:
                results = run_sweep(
                    spec, workers=2, cache_dir=cache_dir, executor=backend
                )
            assert all(not r.from_cache for r in results)
            path = str(tmp_path / f"{backend}.csv")
            export_csv(results, path)
            with open(path, "rb") as fh:
                blobs[backend] = fh.read()
        assert blobs["thread"] == blobs["serial"]
        assert blobs["process"] == blobs["serial"]
        assert blobs["queue"] == blobs["serial"]
        assert blobs["tcp"] == blobs["serial"]

    def test_queue_results_cache_is_reused_and_force_discards_it(self, tmp_path):
        spec = tiny_spec(grid={}, seeds=(1,))
        (run,) = expand_spec(spec)
        queue_dir = str(tmp_path / "queue")
        run_with_queue(spec, queue_dir, n_workers=1)

        # poison the queue's stored result to tell replay from re-execution
        queue = WorkQueue(queue_dir)
        path = os.path.join(queue.results_dir, f"{run.cache_key()}.json")
        with open(path, encoding="utf-8") as fh:
            stored = json.load(fh)
        stored["metrics"]["pdr"] = -123.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(stored, fh)

        # a normal sweep replays the queue's results cache, workerless
        (replayed,) = run_sweep(
            spec,
            workers=0,
            executor="queue",
            executor_options={"queue_dir": queue_dir, "poll_interval": 0.02},
        )
        assert replayed.metrics["pdr"] == -123.0
        assert not replayed.from_cache  # executed on this sweep's behalf

        # --force must discard the stored result and re-execute on a worker
        (forced,) = run_with_queue(spec, queue_dir, n_workers=1, force=True)
        assert forced.metrics["pdr"] != -123.0

    def test_warm_cache_replays_under_every_backend(self, tmp_path):
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        reference = run_sweep(spec, workers=1, cache_dir=cache_dir, executor="serial")
        for backend in ("process", "thread", "queue", "tcp"):
            options = (
                {"queue_dir": str(tmp_path / "queue")} if backend == "queue" else {}
            )
            # no workers attached anywhere: with zero cache misses the
            # queue backend must not need any (and tcp never binds)
            replay = run_sweep(
                spec,
                workers=0,
                cache_dir=cache_dir,
                executor=backend,
                executor_options=options,
            )
            assert all(r.from_cache for r in replay)
            assert [r.metrics for r in replay] == [r.metrics for r in reference]


class TestLeaseProtocol:
    def test_claim_is_exclusive(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.ensure()
        assert queue.claim("t1", "a", stale_after=30.0)
        assert not queue.claim("t1", "b", stale_after=30.0)

    def test_stale_lease_is_reclaimed(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.ensure()
        assert queue.claim("t1", "dead", stale_after=30.0)
        stale = time.time() - 100.0
        os.utime(queue._claim_path("t1"), (stale, stale))
        assert queue.claim("t1", "rescuer", stale_after=5.0)
        with open(queue._claim_path("t1"), encoding="utf-8") as fh:
            assert fh.read() == "rescuer"

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.ensure()
        assert queue.claim("t1", "busy", stale_after=30.0)
        stale = time.time() - 100.0
        os.utime(queue._claim_path("t1"), (stale, stale))
        queue.heartbeat("t1", "busy")
        assert not queue.claim("t1", "thief", stale_after=5.0)

    def test_heartbeat_by_dispossessed_worker_raises(self, tmp_path):
        # a stalled worker whose lease was stolen must get the OSError
        # (stopping its heartbeat thread), not refresh the new owner's
        # claim as if it were its own
        queue = WorkQueue(str(tmp_path))
        queue.ensure()
        assert queue.claim("t1", "stalled", stale_after=30.0)
        stale = time.time() - 100.0
        os.utime(queue._claim_path("t1"), (stale, stale))
        assert queue.claim("t1", "thief", stale_after=5.0)
        with pytest.raises(OSError, match="no longer held"):
            queue.heartbeat("t1", "stalled")

    def test_release_by_dispossessed_worker_is_a_noop(self, tmp_path):
        # ... and its release must not unlink the new owner's claim,
        # which would expose the task to a third claimer mid-execution
        queue = WorkQueue(str(tmp_path))
        queue.ensure()
        assert queue.claim("t1", "stalled", stale_after=30.0)
        stale = time.time() - 100.0
        os.utime(queue._claim_path("t1"), (stale, stale))
        assert queue.claim("t1", "thief", stale_after=5.0)
        queue.release("t1", "stalled")
        assert queue.claim_owner("t1") == "thief"
        queue.release("t1", "thief")
        assert queue.claim_owner("t1") is None

    def test_release_allows_reclaim(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.ensure()
        assert queue.claim("t1", "a", stale_after=30.0)
        queue.release("t1", "a")
        assert queue.claim("t1", "b", stale_after=30.0)

    def test_concurrent_same_key_cache_puts_are_safe(self, tmp_path):
        # both sides of a reclaimed stale lease may publish the same
        # deterministic result; the unique tmp names mean neither rename
        # can crash the other, and the entry stays valid JSON
        cache = ResultCache(str(tmp_path / "results"))
        result = RunResult(
            run_id="r", params={}, seed=1, duration=1.0, metrics={"pdr": 1.0}
        )
        cache.put("k", result)
        cache.put("k", result)
        assert cache.get("k").metrics == {"pdr": 1.0}
        leftovers = [
            name for name in os.listdir(str(tmp_path / "results")) if ".tmp" in name
        ]
        assert leftovers == []


class TestWorkerFaultPaths:
    def test_crashed_workers_run_is_reclaimed_and_executed(self, tmp_path):
        # a worker died mid-run: its lease is held but heartbeat-stale and
        # no result was published.  A fresh worker must steal the lease,
        # execute the run and publish the result.
        queue_dir = str(tmp_path / "queue")
        queue = WorkQueue(queue_dir)
        queue.ensure()
        (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
        task_id = run.cache_key()
        queue.enqueue(task_id, run)
        assert queue.claim(task_id, "dead", stale_after=30.0)
        stale = time.time() - 100.0
        os.utime(queue._claim_path(task_id), (stale, stale))

        executed = run_worker(
            queue_dir,
            worker_id="rescuer",
            poll_interval=0.01,
            stale_after=5.0,
            max_tasks=1,
        )
        assert executed == 1
        result = ResultCache(queue.results_dir).get(task_id)
        assert result is not None and result.run_id == run.run_id
        assert queue.task_ids() == []
        assert not os.path.exists(queue._claim_path(task_id))

    def test_two_concurrent_workers_never_double_execute(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        queue = WorkQueue(queue_dir)
        queue.ensure()
        runs = expand_spec(tiny_spec(grid={"n_nodes": [10, 12, 14]}, seeds=(1, 2)))
        for run in runs:
            queue.enqueue(run.cache_key(), run)

        counts = {}
        lock = threading.Lock()

        def counting_execute(run):
            with lock:
                counts[run.run_id] = counts.get(run.run_id, 0) + 1
            time.sleep(0.01)  # widen the claim/execute race window
            return RunResult(
                run_id=run.run_id,
                params=dict(run.params),
                seed=run.seed,
                duration=run.duration,
                metrics={"pdr": 1.0},
                cache_key=run.cache_key(),
            )

        executed_counts = []

        def worker(index):
            executed_counts.append(
                run_worker(
                    queue_dir,
                    worker_id=f"w{index}",
                    poll_interval=0.01,
                    stale_after=30.0,
                    execute=counting_execute,
                )
            )

        threads = [threading.Thread(target=worker, args=(i,)) for i in (1, 2)]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 30.0
        while queue.task_ids() and time.monotonic() < deadline:
            time.sleep(0.02)
        queue.close()
        for thread in threads:
            thread.join(timeout=30)
        assert queue.task_ids() == []
        assert counts == {run.run_id: 1 for run in runs}
        assert sum(executed_counts) == len(runs)

    def test_interrupted_worker_leaves_task_for_reclaim(self, tmp_path):
        # Ctrl-C detaching a worker mid-run publishes neither result nor
        # error; the task file must survive so another worker re-claims
        # the run instead of the sweep losing it forever
        queue_dir = str(tmp_path / "queue")
        queue = WorkQueue(queue_dir)
        queue.ensure()
        (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
        task_id = run.cache_key()
        queue.enqueue(task_id, run)

        def interrupt(run):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_worker(
                queue_dir, worker_id="w1", poll_interval=0.01, execute=interrupt
            )
        assert queue.task_ids() == [task_id]
        assert queue.claim_owner(task_id) is None  # lease released immediately
        assert os.listdir(queue.errors_dir) == []

        executed = run_worker(
            queue_dir, worker_id="w2", poll_interval=0.01, max_tasks=1
        )
        assert executed == 1
        assert ResultCache(queue.results_dir).get(task_id) is not None

    def test_dispossessed_worker_does_not_clobber_the_new_owner(self, tmp_path):
        # a worker that stalls past stale_after, loses its lease, then
        # fails must not publish the failure or delete the task the new
        # owner is still executing
        queue_dir = str(tmp_path / "queue")
        queue = WorkQueue(queue_dir)
        queue.ensure()
        (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
        task_id = run.cache_key()
        queue.enqueue(task_id, run)

        def stalled_execute(r):
            # simulate the stall + steal: the lease changes hands while
            # this worker is still executing, then its run fails late
            queue.release(task_id)
            assert queue.claim(task_id, "thief", stale_after=30.0)
            raise RuntimeError("stalled worker finishing late")

        returns = []
        victim = threading.Thread(
            target=lambda: returns.append(
                run_worker(
                    queue_dir,
                    worker_id="victim",
                    poll_interval=0.01,
                    execute=stalled_execute,
                )
            )
        )
        victim.start()
        deadline = time.monotonic() + 30.0
        while queue.claim_owner(task_id) != "thief" and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # let the victim's failure path run its course
        assert os.listdir(queue.errors_dir) == []      # no spurious failure
        assert queue.task_ids() == [task_id]           # task intact for the thief
        assert queue.claim_owner(task_id) == "thief"   # lease untouched

        # the thief completes the run; the victim drains out cleanly
        result = RunResult(
            run_id=run.run_id, params={}, seed=1, duration=1.0, metrics={"pdr": 1.0}
        )
        ResultCache(queue.results_dir).put(task_id, result)
        queue.finish(task_id)
        queue.release(task_id, "thief")
        queue.close()
        victim.join(timeout=30)
        assert not victim.is_alive()
        assert returns == [0]

    def test_fully_cached_sweep_still_closes_queue_for_external_workers(
        self, tmp_path
    ):
        # zero pending runs means map_runs never executes, but externally
        # attached workers are still waiting on the closed sentinel
        spec = tiny_spec(grid={}, seeds=(1,))
        cache_dir = str(tmp_path / "cache")
        run_sweep(spec, cache_dir=cache_dir, executor="serial")

        queue_dir = str(tmp_path / "queue")
        worker = threading.Thread(
            target=run_worker,
            kwargs=dict(queue_dir=queue_dir, worker_id="w", poll_interval=0.02),
        )
        worker.start()
        replay = run_sweep(
            spec,
            workers=0,
            cache_dir=cache_dir,
            executor="queue",
            executor_options={"queue_dir": queue_dir, "poll_interval": 0.02},
        )
        assert all(r.from_cache for r in replay)
        worker.join(timeout=30)
        assert not worker.is_alive()

    def test_stale_error_from_a_dead_sweep_does_not_fail_a_retry(self, tmp_path):
        # a previous driver died after a worker published a failure but
        # before consuming it; the retry sweep must clear the stale error
        # and re-execute instead of reporting the old failure
        spec = tiny_spec(grid={}, seeds=(1,))
        (run,) = expand_spec(spec)
        queue_dir = str(tmp_path / "queue")
        queue = WorkQueue(queue_dir)
        queue.ensure()
        queue.record_error(run.cache_key(), run.run_id, RuntimeError("old sweep"))

        results = run_with_queue(spec, queue_dir, n_workers=1)
        assert [r.run_id for r in results] == [run.run_id]
        assert os.listdir(queue.errors_dir) == []

    def test_duplicate_cache_keys_recorded_under_each_runs_identity(self, tmp_path):
        # a pure label axis expands to runs with identical configs (one
        # shared cache key) but distinct run ids; the queue backend
        # executes once and must stamp each recorded copy with its own
        # identity, byte-matching an in-process backend's artifacts
        spec = tiny_spec(
            grid={"variant": [{"variant": "a"}, {"variant": "b"}]}, seeds=(1,)
        )
        runs = expand_spec(spec)
        assert len({run.cache_key() for run in runs}) == 1
        reference = run_sweep(spec, executor="serial")
        queued = run_with_queue(spec, str(tmp_path / "queue"), n_workers=1)
        assert [r.run_id for r in queued] == [r.run_id for r in reference]
        assert [r.params for r in queued] == [r.params for r in reference]
        ref_csv, queue_csv = str(tmp_path / "ref.csv"), str(tmp_path / "queue.csv")
        export_csv(reference, ref_csv)
        export_csv(queued, queue_csv)
        with open(ref_csv, "rb") as fh:
            ref_bytes = fh.read()
        with open(queue_csv, "rb") as fh:
            assert fh.read() == ref_bytes

    def test_remote_failure_is_reported_and_consumed(self, tmp_path):
        @register_hook("executor_explode")
        def _explode(scenario):
            raise RuntimeError("boom from the worker")

        spec = tiny_spec(seeds=(1,), during_run="executor_explode")
        queue_dir = str(tmp_path / "queue")
        with pytest.raises(SweepError, match="boom from the worker"):
            run_with_queue(spec, queue_dir, n_workers=1)
        # the failure was consumed (a later sweep retries) and nothing
        # remains queued or leased
        queue = WorkQueue(queue_dir)
        assert os.listdir(queue.errors_dir) == []
        assert queue.task_ids() == []


class TestChurnCounters:
    """The queue's robustness counters (satellites of the tcp subsystem)."""

    def test_reclaim_is_recorded_and_counted(self, tmp_path):
        # a crashed worker's stale lease is broken by a rescuer: the
        # reclaim event must feed every churn counter
        queue_dir = str(tmp_path / "queue")
        queue = WorkQueue(queue_dir)
        queue.ensure()
        (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
        task_id = run.cache_key()
        queue.enqueue(task_id, run)
        assert queue.claim(task_id, "dead", stale_after=30.0)
        stale = time.time() - 100.0
        os.utime(queue._claim_path(task_id), (stale, stale))

        executed = run_worker(
            queue_dir,
            worker_id="rescuer",
            poll_interval=0.01,
            stale_after=5.0,
            max_tasks=1,
        )
        assert executed == 1
        stats = queue.churn_stats()
        assert stats.leases_reclaimed == 1
        assert stats.runs_reexecuted == 1
        assert stats.workers_lost == 1      # "dead" lost its lease
        assert stats.workers_seen >= 1      # "rescuer" registered itself
        assert "1 lease(s) reclaimed" in stats.describe()

    def test_counters_are_windowed_by_sweep_epoch(self, tmp_path):
        # events left behind by an earlier sweep in a reused queue dir
        # must not be re-counted by the next sweep's epoch window
        queue_dir = str(tmp_path / "queue")
        queue = WorkQueue(queue_dir)
        queue.ensure()
        queue.register_worker("w-old")
        queue.record_reclaim("t-old", "dead", "rescuer")
        assert queue.churn_stats(since=0.0)
        later = queue._fs_now() + 3600.0
        assert not queue.churn_stats(since=later)

    def test_uneventful_queue_sweep_reports_only_workers_seen(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        run_with_queue(tiny_spec(grid={}, seeds=(1,)), queue_dir, n_workers=2)
        stats = WorkQueue(queue_dir).churn_stats()
        assert stats.leases_reclaimed == 0
        assert stats.workers_lost == 0
        assert stats.runs_reexecuted == 0
        assert stats.workers_seen == 2


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
    """serial/queue must emit the same progress stream as the process pool."""

    def run_and_capture(self, capsys, backend, tmp_path):
        spec = tiny_spec()
        cache_dir = str(tmp_path / f"cache-{backend}")
        if backend == "queue":
            run_with_queue(
                spec, str(tmp_path / "queue"), cache_dir=cache_dir, progress=True
            )
        else:
            run_sweep(
                spec, workers=2, cache_dir=cache_dir, executor=backend, progress=True
            )
        return _progress_lines(capsys)

    @pytest.mark.parametrize("backend", ["serial", "process", "queue"])
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

    def test_progress_false_silences_spawned_queue_workers_too(
        self, capfd, tmp_path
    ):
        # the only test spawning a real `python -m repro.experiments
        # worker` subprocess: it inherits stderr (capfd sees it), and a
        # progress-suppressed sweep must stay silent end to end
        results = run_sweep(
            tiny_spec(grid={}, seeds=(1,)),
            workers=1,
            cache_dir=str(tmp_path / "cache"),
            executor="queue",
            executor_options={
                "queue_dir": str(tmp_path / "queue"),
                "poll_interval": 0.05,
            },
            progress=False,
        )
        assert len(results) == 1 and not results[0].from_cache
        out, err = capfd.readouterr()
        assert out == "" and err == ""


class TestCliSurface:
    def test_executors_subcommand_lists_backends(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["executors"]) == 0
        out = capsys.readouterr().out
        for name in ("serial", "process", "thread", "queue", "tcp"):
            assert name in out

    def test_run_rejects_unknown_executor(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["run", "smoke", "--executor", "warp", "--format", "none"]) == 2
        err = capsys.readouterr().err
        assert "warp" in err and "serial" in err

    def test_worker_subcommand_max_tasks_zero_exits(self, capsys, tmp_path):
        from repro.experiments.__main__ import main

        queue_dir = str(tmp_path / "queue")
        assert main(["worker", "--queue-dir", queue_dir, "--max-tasks", "0"]) == 0
        assert "executed 0 run(s)" in capsys.readouterr().out
