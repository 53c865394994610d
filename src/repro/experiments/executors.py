"""Run-execution backends for the sweep orchestrator.

The sweep loop (:func:`~repro.experiments.orchestrator.sweep`) hands
each round's pending ``(key, RunSpec)`` pairs to an :class:`Executor`
in one batch -- a fixed seed list is one round, so the pool starts once
per sweep -- and the executor maps them to recorded
:class:`~repro.experiments.orchestrator.RunResult`\\ s.  Two backends
ship, named in :data:`EXECUTORS`:

* ``serial`` -- a plain in-process loop; the debuggable reference
  implementation (breakpoints and profilers work, nothing forks).
* ``process`` -- the **default**: a forked
  :class:`~concurrent.futures.ProcessPoolExecutor` of ``workers``
  processes (falling back to the serial loop for one worker or one run).

To spread a sweep over several machines, run ``--shard i/n`` slices
and fold their caches together with ``merge``
(:func:`~repro.experiments.orchestrator.merge_caches`).

Which backend runs is a *sweep-cosmetic* choice: it is excluded from
cache keys and artifacts, so a warm cache populated under one executor
replays with zero executions under the other, and the artifact set is
byte-identical across backends.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

from repro.registry import RegistryError

#: the backend used when the caller names none: a local process pool
DEFAULT_EXECUTOR = "process"


class Executor:
    """One run-execution strategy: the contract the sweep loop dispatches to.

    :meth:`map_runs` executes every ``(key, RunSpec)`` pair of
    ``pending``, calling ``record(key, result)`` once per completed run
    and ``fail(run, exc)`` once per failed run -- *every* run is drained
    even when some fail, so completed work is always recorded (and
    thereby cached) before the caller raises.  The caller keys results
    itself, so record order may be completion order; determinism of the
    final result list is the orchestrator's job, and cache semantics are
    carried entirely by ``record``.  One instance may serve several
    :meth:`map_runs` batches (the sweep loop makes one batch per round).
    """

    #: backend name (its key in :data:`EXECUTORS`), for progress lines
    name = "base"

    def map_runs(
        self,
        pending: Sequence[tuple],
        execute: Callable,
        record: Callable[[Any, Any], None],
        fail: Callable[[Any, Exception], None],
        *,
        workers: int,
    ) -> None:
        raise NotImplementedError

    def describe(self, workers: int) -> str:
        """Human-readable parallelism for the scheduling progress line."""
        return f"{max(1, workers)} worker(s) [{self.name}]"

    def _serial_loop(self, pending, execute, record, fail) -> None:
        for key, run in pending:
            try:
                record(key, execute(run))
            except Exception as exc:
                fail(run, exc)


class SerialExecutor(Executor):
    """In-process loop: debuggable reference backend (no forking, no pool)."""

    name = "serial"

    def map_runs(self, pending, execute, record, fail, *, workers):
        self._serial_loop(pending, execute, record, fail)

    def describe(self, workers: int) -> str:
        return "1 worker(s) [serial]"


class ProcessExecutor(Executor):
    """Forked process pool: the default local backend (real parallelism)."""

    name = "process"

    def map_runs(self, pending, execute, record, fail, *, workers):
        if workers <= 1 or len(pending) <= 1:
            self._serial_loop(pending, execute, record, fail)
            return
        import concurrent.futures
        import multiprocessing

        try:
            context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX platforms
            context = multiprocessing.get_context()
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(workers, len(pending)), mp_context=context
        ) as pool:
            futures = {pool.submit(execute, run): (key, run) for key, run in pending}
            for future in concurrent.futures.as_completed(futures):
                key, run = futures[future]
                try:
                    record(key, future.result())
                except Exception as exc:
                    fail(run, exc)


#: the executor backends by name; ``executor=`` and ``--executor``
#: resolve here through :func:`make_executor`
EXECUTORS = {"serial": SerialExecutor, "process": ProcessExecutor}


def make_executor(name: Optional[str]) -> Executor:
    """Instantiate the executor named ``name`` (default: process).

    Unknown names raise :class:`~repro.registry.RegistryError` listing
    the alternatives -- the orchestrator calls this eagerly, before any
    run executes, so a typo'd ``--executor`` fails like a typo'd
    protocol name.
    """
    name = name or DEFAULT_EXECUTOR
    if name not in EXECUTORS:
        raise RegistryError(
            f"unknown executor {name!r}; executors: {', '.join(sorted(EXECUTORS))}"
        )
    return EXECUTORS[name]()
