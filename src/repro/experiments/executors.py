"""Pluggable run-execution backends for the sweep orchestrator.

:func:`~repro.experiments.orchestrator.run_sweep` dispatches run
execution through a registry of named *executor* backends (the same
pattern as the protocol/radio/mac/mobility registries of
:mod:`repro.registry`): an :class:`Executor` maps pending ``(key,
RunSpec)`` pairs to recorded
:class:`~repro.experiments.orchestrator.RunResult`\\ s, and the
orchestrator dispatches through :data:`EXECUTORS` instead of branching.

Two backends ship here:

* ``serial`` -- a plain in-process loop; the debuggable reference
  implementation (breakpoints and profilers work, nothing forks).
* ``process`` -- the registered **default**: a forked
  :class:`~concurrent.futures.ProcessPoolExecutor` of ``workers``
  processes (falling back to the serial loop for one worker or one run).

To spread a sweep over several machines, run ``--shard i/n`` slices
and fold their caches together with ``merge``
(:func:`~repro.experiments.orchestrator.merge_caches`).

Which backend runs is a *sweep-cosmetic* choice: it is excluded from
cache keys and artifacts, so a warm cache populated under one executor
replays with zero executions under the other, and the artifact set is
byte-identical across backends.

Register third-party backends exactly like built-ins::

    from repro.experiments.executors import Executor, register_executor

    @register_executor("ssh")
    class SshExecutor(Executor):
        ...
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.registry import Registry

#: executor-backend factories; ``run_sweep(executor=)`` / ``--executor``
#: resolve here.  Bootstraps this module (the built-ins) and the specs
#: module (the one module spawn-platform workers re-import), mirroring
#: the component registries.
EXECUTORS = Registry(
    "executor",
    bootstrap=(
        "repro.experiments.executors",
        "repro.experiments.specs",
    ),
)

#: the backend used when the caller names none: a local process pool
DEFAULT_EXECUTOR = "process"


def register_executor(name: str) -> Callable:
    """Register an :class:`Executor` factory (usually the class) under ``name``."""
    return EXECUTORS.register(name)


def make_executor(name: Optional[str]) -> "Executor":
    """Instantiate the executor registered under ``name`` (default: process).

    Unknown names raise :class:`~repro.registry.RegistryError` listing the
    registered alternatives -- the orchestrator calls this eagerly, before
    any run executes, so a typo'd ``--executor`` fails like a typo'd
    protocol name.
    """
    return EXECUTORS.get(name or DEFAULT_EXECUTOR)()


def available_executors() -> List[Tuple[str, str]]:
    """Sorted ``(name, one-line description)`` pairs of registered backends."""
    rows = []
    for name in EXECUTORS.names():
        entry = EXECUTORS.get(name)
        doc = (entry.__doc__ or "").strip()
        rows.append((name, doc.splitlines()[0] if doc else ""))
    return rows


class Executor:
    """One run-execution strategy: the contract ``run_sweep`` dispatches to.

    :meth:`map_runs` executes every ``(key, RunSpec)`` pair of
    ``pending``, calling ``record(key, result)`` once per completed run
    and ``fail(run, exc)`` once per failed run -- *every* run is drained
    even when some fail, so completed work is always recorded (and
    thereby cached) before the caller raises.  The caller keys results
    itself, so record order may be completion order; determinism of the
    final result list is the orchestrator's job, and cache semantics are
    carried entirely by ``record``.  One instance may serve several
    :meth:`map_runs` batches (the adaptive loop schedules one batch per
    round).
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


@register_executor("serial")
class SerialExecutor(Executor):
    """In-process loop: debuggable reference backend (no forking, no pool)."""

    name = "serial"

    def map_runs(self, pending, execute, record, fail, *, workers):
        self._serial_loop(pending, execute, record, fail)

    def describe(self, workers: int) -> str:
        return "1 worker(s) [serial]"


@register_executor("process")
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
