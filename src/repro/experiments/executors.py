"""Pluggable run-execution backends for the sweep orchestrator.

:func:`~repro.experiments.orchestrator.run_sweep` used to be hardwired to
a local ``multiprocessing`` pool.  This module extracts that choice into
a registry of named *executor* backends (the same pattern as the
protocol/radio/mac/mobility registries of :mod:`repro.registry`): an
:class:`Executor` maps pending ``(key, RunSpec)`` pairs to recorded
:class:`~repro.experiments.orchestrator.RunResult`\\ s, and the
orchestrator dispatches through :data:`EXECUTORS` instead of branching.

Two local backends ship here:

* ``serial`` -- a plain in-process loop; the debuggable reference
  implementation (breakpoints and profilers work, nothing forks).
* ``process`` -- the previous behaviour and the registered **default**: a
  forked :class:`~concurrent.futures.ProcessPoolExecutor` of ``workers``
  processes (falling back to the serial loop for one worker or one run).

The third, ``tcp``, lives in :mod:`repro.experiments.net` and spreads a
sweep over several machines: the driver leases runs over sockets to
workers that attach with ``python -m repro.experiments worker --connect
HOST:PORT``.  Its lease/heartbeat/stale-reclaim rules live in
:mod:`repro.experiments.leases`.

Which backend runs is a *sweep-cosmetic* choice: it is excluded from
cache keys and artifacts, so a warm cache populated under one executor
replays with zero executions under every other, and the merged artifact
set is byte-identical across backends.

Register third-party backends exactly like built-ins::

    from repro.experiments.executors import Executor, register_executor

    @register_executor("ssh")
    class SshExecutor(Executor):
        ...
"""

from __future__ import annotations

import sys
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.experiments.leases import ExecutorStats
from repro.registry import Registry

#: executor-backend factories; ``SweepSpec.executor`` / ``--executor``
#: resolve here.  Bootstraps this module (the built-ins), the networked
#: backend (the ``tcp`` coordinator) and the specs module (the one
#: module spawn-platform workers re-import), mirroring the component
#: registries.
EXECUTORS = Registry(
    "executor",
    bootstrap=(
        "repro.experiments.executors",
        "repro.experiments.net.coordinator",
        "repro.experiments.specs",
    ),
)

#: the backend used when neither the spec nor the caller names one --
#: the pre-registry behaviour (a local process pool)
DEFAULT_EXECUTOR = "process"


def register_executor(name: str) -> Callable:
    """Register an :class:`Executor` factory (usually the class) under ``name``."""
    return EXECUTORS.register(name)


def make_executor(name, **options: Any) -> "Executor":
    """Instantiate the executor registered under ``name`` (default: process).

    Unknown names raise :class:`~repro.registry.RegistryError` listing the
    registered alternatives -- the orchestrator calls this eagerly, before
    any run executes, so a typo'd ``--executor`` fails like a typo'd
    protocol name.  ``options`` are backend keyword arguments (the
    ``tcp`` backend takes ``host``/``port``/``poll_interval``/
    ``stale_after``; the in-process backends take none).

    An already-constructed :class:`Executor` instance passes through
    unchanged (``options`` must then be empty) -- callers that need to
    configure a backend beyond its keyword options, e.g. binding a tcp
    coordinator to an ephemeral port and learning the port before the
    sweep starts, build the instance themselves and hand it to
    ``run_sweep(..., executor=instance)``.
    """
    if isinstance(name, Executor):
        if options:
            raise ValueError(
                "make_executor: options cannot be combined with an "
                "already-constructed Executor instance"
            )
        return name
    return EXECUTORS.get(name or DEFAULT_EXECUTOR)(**options)


def available_executors() -> List[Tuple[str, str]]:
    """Sorted ``(name, one-line description)`` pairs of registered backends."""
    rows = []
    for name in EXECUTORS.names():
        entry = EXECUTORS.get(name)
        doc = (entry.__doc__ or "").strip()
        rows.append((name, doc.splitlines()[0] if doc else ""))
    return rows


def _log(progress: bool, message: str) -> None:
    if progress:
        print(message, file=sys.stderr, flush=True)


class WorkerTaskError(RuntimeError):
    """A leased run failed on a remote worker (or every local worker exited)."""


class Executor:
    """One run-execution strategy: the contract ``run_sweep`` dispatches to.

    :meth:`map_runs` executes every ``(key, RunSpec)`` pair of
    ``pending``, calling ``record(key, result)`` once per completed run
    and ``fail(run, exc)`` once per failed run -- *every* run is drained
    even when some fail, so completed work is always recorded (and
    thereby cached) before the caller raises.  The caller keys results
    itself, so record order may be completion order; determinism of the
    final result list is the orchestrator's job, and cache semantics are
    carried entirely by ``record``.

    Backends with external state (the tcp coordinator's socket and local
    worker processes) release it in :meth:`close`, which the
    orchestrator always calls -- an executor instance may serve several
    :meth:`map_runs` batches first (the adaptive loop schedules one
    batch per round).
    """

    #: registered name, for progress lines and error messages
    name = "base"

    def map_runs(
        self,
        pending: Sequence[tuple],
        execute: Callable,
        record: Callable[[Any, Any], None],
        fail: Callable[[Any, Exception], None],
        *,
        workers: int,
        label: str,
        progress: bool,
    ) -> None:
        raise NotImplementedError

    def describe(self, workers: int) -> str:
        """Human-readable parallelism for the scheduling progress line."""
        return f"{max(1, workers)} worker(s) [{self.name}]"

    def stats(self) -> Optional[ExecutorStats]:
        """Churn counters for the run summary, or None.

        In-process backends have no worker churn and return None; the
        work-stealing ``tcp`` backend reports leases reclaimed, workers
        seen/lost and runs re-executed, cumulative across every
        :meth:`map_runs` batch this instance served.
        """
        return None

    def close(self) -> None:
        """Release backend state (sockets, processes); idempotent."""

    def _serial_loop(self, pending, execute, record, fail) -> None:
        for key, run in pending:
            try:
                record(key, execute(run))
            except Exception as exc:
                fail(run, exc)


@register_executor("serial")
class SerialExecutor(Executor):
    """In-process loop: debuggable reference backend (no forking, no pool)."""

    name = "serial"

    def map_runs(self, pending, execute, record, fail, *, workers, label, progress):
        self._serial_loop(pending, execute, record, fail)

    def describe(self, workers: int) -> str:
        return "1 worker(s) [serial]"


@register_executor("process")
class ProcessExecutor(Executor):
    """Forked process pool: the default local backend (real parallelism)."""

    name = "process"

    def map_runs(self, pending, execute, record, fail, *, workers, label, progress):
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
