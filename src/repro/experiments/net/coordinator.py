"""Driver side of the networked (``tcp``) executor.

:class:`Coordinator` is a small threaded TCP service the driver process
runs for the duration of a sweep: it listens on ``host:port``, performs
the :mod:`~repro.experiments.net.protocol` handshake with each connecting
worker, leases pending :class:`~repro.experiments.orchestrator.RunSpec`\\ s
to them, and collects streamed results/errors.  Lease liveness follows
the state machine of :mod:`repro.experiments.leases`, judged **entirely
on the coordinator's monotonic clock**: every frame received from a
worker -- heartbeat or otherwise -- refreshes that worker's leases at the
moment of arrival, and worker-side timestamps are never consulted, so
machines with disagreeing clocks cannot break leases (or keep dead ones
alive).

Churn tolerance:

* a worker that **disconnects** (crash, ``kill -9``, network drop -- TCP
  EOF or reset) has its leases released back to the pending pool
  immediately;
* a worker that stays connected but goes **silent** longer than
  ``stale_after`` has its leases reclaimed by the executor's poll loop;
* either way the runs are re-leased to the next worker that asks, and a
  dispossessed worker's late result or error is dropped -- every run is
  recorded exactly once, only its current lease holder can fail it, and
  deterministic execution makes the re-run byte-identical;
* a **malformed frame** kills only the offending connection.

:class:`TcpExecutor` (registered as ``tcp``) wraps the coordinator in the
:class:`~repro.experiments.executors.Executor` contract: like every
backend it is sweep-cosmetic (excluded from cache keys; artifacts stay
byte-identical to serial/process), results land in the *driver's*
result store via the orchestrator's ``record`` callback (the store spec
never crosses the wire), and a warm-cache sweep never even binds the
listening socket.
"""

from __future__ import annotations

import collections
import os
import socket
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.experiments.executors import (
    Executor,
    WorkerTaskError,
    _log,
    register_executor,
)
from repro.experiments.leases import (
    DEFAULT_STALE_AFTER,
    ExecutorStats,
    LeaseTable,
)
from repro.experiments.net import protocol
from repro.experiments.net.protocol import (
    DEFAULT_MAX_PAYLOAD,
    FrameConnection,
    ProtocolError,
)

#: default bind address -- loopback; bind 0.0.0.0 explicitly for fleets
DEFAULT_HOST = "127.0.0.1"

#: default coordinator port (0 = bind an ephemeral port and read
#: :attr:`Coordinator.port` back)
DEFAULT_PORT = 7653


class Coordinator:
    """Threaded lease-granting TCP service owned by the driver process.

    Thread model: one accept thread plus one handler thread per
    connection, all daemons, all serialised on one lock around the task
    pool, the :class:`~repro.experiments.leases.LeaseTable` and the
    completed/failed maps.  The driver thread interacts through
    :meth:`submit`/:meth:`drain`/:meth:`reclaim_stale`, so results flow:
    worker socket -> handler thread -> completed map -> ``drain()`` ->
    the orchestrator's ``record`` callback -> the driver's result store.
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        stale_after: float = DEFAULT_STALE_AFTER,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
    ) -> None:
        self.host = host
        self.port = port
        self.stale_after = stale_after
        self.max_payload = max_payload
        self._lock = threading.Lock()
        self._done = threading.Condition(self._lock)
        self._tasks: Dict[str, Any] = {}          # outstanding task -> RunSpec
        self._queue: collections.deque = collections.deque()  # leasable ids
        self._leases = LeaseTable(stale_after=stale_after)
        self._completed: Dict[str, Any] = {}      # task -> RunResult
        self._failed: Dict[str, Dict[str, str]] = {}
        self._stats = ExecutorStats()
        self._seen_workers: set = set()
        self._active_workers: collections.Counter = collections.Counter()
        self._reclaimed: set = set()              # tasks reclaimed >= once
        self._server: Optional[socket.socket] = None
        self._conns: set = set()
        self._threads: List[threading.Thread] = []
        self._closing = False

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> int:
        """Bind, listen and start accepting; returns the bound port.

        Idempotent -- the executor calls this lazily from its first
        ``map_runs`` batch, so a warm-cache sweep never opens a socket.
        """
        with self._lock:
            if self._server is not None:
                return self.port
            server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            server.bind((self.host, self.port))
            server.listen()
            self.port = server.getsockname()[1]
            self._server = server
        acceptor = threading.Thread(target=self._accept_loop, daemon=True)
        acceptor.start()
        self._threads.append(acceptor)
        return self.port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def close(self, grace: float = 5.0) -> None:
        """Stop serving: idle workers get ``close`` on their next drain.

        Waits up to ``grace`` seconds for connected workers to say
        goodbye (they poll within their own poll interval), then drops
        any remaining connections.  Idempotent; a never-started
        coordinator closes instantly.
        """
        with self._lock:
            self._closing = True
            server, self._server = self._server, None
        if server is not None:
            try:
                server.close()
            except OSError:
                pass
            deadline = time.monotonic() + grace
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._conns:
                        break
                time.sleep(0.05)
        with self._lock:
            remaining = list(self._conns)
        for conn in remaining:
            conn.close()

    # -- driver-side API ---------------------------------------------------

    def submit(self, task_id: str, run: Any) -> None:
        """Add one pending run to the leasable pool (dedup by task id)."""
        with self._lock:
            if task_id in self._tasks:
                return
            self._tasks[task_id] = run
            self._queue.append(task_id)

    def drain(self, timeout: float) -> Tuple[Dict[str, Any], Dict[str, Dict[str, str]]]:
        """Pop everything finished so far, waiting up to ``timeout``."""
        with self._done:
            if not self._completed and not self._failed:
                self._done.wait(timeout)
            results, self._completed = self._completed, {}
            errors, self._failed = self._failed, {}
            return results, errors

    def reclaim_stale(self) -> int:
        """Requeue leases silent past ``stale_after`` (coordinator clock)."""
        with self._lock:
            stale = self._leases.reclaim_stale(time.monotonic())
            for lease in stale:
                self._requeue_locked(lease.task_id)
            return len(stale)

    def status(self) -> Tuple[int, int, int]:
        """(outstanding runs, currently leased, connected workers)."""
        with self._lock:
            return len(self._tasks), len(self._leases), sum(
                1 for count in self._active_workers.values() if count > 0
            )

    def worker_count(self) -> int:
        with self._lock:
            return sum(1 for count in self._active_workers.values() if count > 0)

    def stats(self) -> ExecutorStats:
        with self._lock:
            stats = ExecutorStats(
                leases_reclaimed=self._stats.leases_reclaimed,
                workers_seen=len(self._seen_workers),
                workers_lost=self._stats.workers_lost,
                runs_reexecuted=self._stats.runs_reexecuted,
            )
            return stats

    def _requeue_locked(self, task_id: str) -> None:
        """Put a reclaimed lease's run back up for leasing (lock held)."""
        if task_id in self._tasks and task_id not in self._queue:
            self._queue.append(task_id)
            self._reclaimed.add(task_id)
            self._stats.leases_reclaimed += 1

    # -- the service -------------------------------------------------------

    def _accept_loop(self) -> None:
        server = self._server
        while server is not None:
            try:
                sock, _addr = server.accept()
            except OSError:  # listener closed: shutting down
                return
            conn = FrameConnection(sock, max_payload=self.max_payload)
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self._conns.add(conn)
            handler = threading.Thread(
                target=self._serve_connection, args=(conn,), daemon=True
            )
            handler.start()
            self._threads.append(handler)
            with self._lock:
                server = self._server

    def _serve_connection(self, conn: FrameConnection) -> None:
        worker: Optional[str] = None
        clean_goodbye = False
        try:
            frame = conn.recv()
            if frame is None:
                return
            kind, payload = frame
            if kind != protocol.FRAME_HELLO:
                raise ProtocolError(f"expected hello, got {kind}")
            try:
                worker = protocol.check_hello(payload)
            except ProtocolError as exc:
                # version mismatch / bad hello: refused explicitly, with
                # the reason on the wire, before any run is leased
                conn.send(protocol.FRAME_ERROR, {"error": str(exc), "fatal": True})
                return
            conn.send(
                protocol.FRAME_HELLO,
                {
                    "version": protocol.PROTOCOL_VERSION,
                    "stale_after": self.stale_after,
                },
            )
            with self._lock:
                self._seen_workers.add(worker)
                self._active_workers[worker] += 1
            clean_goodbye = self._serve_worker(conn, worker)
        except (ProtocolError, OSError):
            pass  # kill this connection only; the coordinator lives on
        finally:
            with self._lock:
                self._conns.discard(conn)
                if worker is not None:
                    self._active_workers[worker] -= 1
                    dropped = self._leases.release_owner(worker)
                    for lease in dropped:
                        self._requeue_locked(lease.task_id)
                    if not clean_goodbye and not self._closing:
                        self._stats.workers_lost += 1
            conn.close()

    def _serve_worker(self, conn: FrameConnection, worker: str) -> bool:
        """Serve one identified worker; True iff it said goodbye cleanly."""
        while True:
            frame = conn.recv()
            if frame is None:
                return False  # EOF without close: crashed / killed
            kind, payload = frame
            now = time.monotonic()
            with self._lock:
                # any frame is proof of life for every lease this worker
                # holds, stamped with *our* clock at arrival
                self._leases.touch_owner(worker, now)
            if kind == protocol.FRAME_HEARTBEAT:
                continue  # never replied to (the beat thread shares the socket)
            if kind == protocol.FRAME_DRAIN:
                self._handle_drain(conn, worker, now)
            elif kind == protocol.FRAME_RESULT:
                self._handle_result(conn, payload)
            elif kind == protocol.FRAME_ERROR:
                self._handle_error(conn, worker, payload)
            elif kind == protocol.FRAME_CLOSE:
                return True  # voluntary detach (not churn)
            else:
                raise ProtocolError(f"unexpected {kind} frame from worker")

    def _handle_drain(self, conn: FrameConnection, worker: str, now: float) -> None:
        with self._lock:
            task_id = None
            while self._queue:
                candidate = self._queue.popleft()
                if candidate in self._tasks:  # skip ids finished meanwhile
                    task_id = candidate
                    break
            if task_id is not None:
                self._leases.claim(task_id, worker, now)
                run = self._tasks[task_id]
                reply = (
                    protocol.FRAME_LEASE,
                    {"task_id": task_id, "run": protocol.encode_run(run)},
                )
            elif self._closing:
                reply = (protocol.FRAME_CLOSE, {})
            else:
                # nothing leasable right now -- outstanding work may still
                # come back via reclaim, and adaptive sweeps submit more
                # rounds, so the worker stays attached and retries
                reply = (protocol.FRAME_DRAIN, {"outstanding": len(self._tasks)})
        conn.send(*reply)

    def _handle_result(self, conn: FrameConnection, payload: Dict[str, Any]) -> None:
        task_id = payload.get("task_id")
        with self._done:  # the condition wraps self._lock
            if isinstance(task_id, str) and task_id in self._tasks:
                result = protocol.decode_result(payload.get("result") or {})
                self._completed[task_id] = result
                del self._tasks[task_id]
                self._leases.release(task_id)
                if task_id in self._reclaimed:
                    self._stats.runs_reexecuted += 1
                self._done.notify_all()
            # else: a dispossessed worker finished a run someone else
            # already completed -- drop it (exactly-once recording)
        conn.send(protocol.FRAME_RESULT, {"task_id": task_id})

    def _handle_error(
        self, conn: FrameConnection, worker: str, payload: Dict[str, Any]
    ) -> None:
        task_id = payload.get("task_id")
        with self._done:
            if (
                isinstance(task_id, str)
                and task_id in self._tasks
                and self._leases.owner(task_id) == worker
            ):
                self._failed[task_id] = {
                    "run_id": str(payload.get("run_id", task_id)),
                    "error": str(payload.get("error", "unknown error")),
                }
                del self._tasks[task_id]
                self._leases.release(task_id)
                self._done.notify_all()
            # else: a dispossessed worker's late error -- the run is leased
            # to (or awaits) another worker, so drop it like a late result
        conn.send(protocol.FRAME_ERROR, {"task_id": task_id})


@register_executor("tcp")
class TcpExecutor(Executor):
    """Networked coordinator/worker execution over TCP (multi-machine).

    The driver listens on ``host:port`` (``--host``/``--port``); workers
    on any reachable machine attach with ``python -m repro.experiments
    worker --connect HOST:PORT`` and may come and go mid-sweep --
    disconnect and silence both trigger lease reclaim, so churn costs a
    re-execution, never a lost or double-recorded run.  ``--workers N``
    spawns N local workers as subprocesses (``0`` relies entirely on
    external ones).  Results stream back over the socket and are
    recorded into the driver's result store; workers never see the store
    spec.  Like every backend the choice is sweep-cosmetic: artifacts
    are byte-identical to serial/process, and a warm cache
    replays with zero executions (the coordinator never even binds).
    """

    name = "tcp"

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        poll_interval: float = 0.2,
        stale_after: float = DEFAULT_STALE_AFTER,
        max_payload: int = DEFAULT_MAX_PAYLOAD,
    ) -> None:
        if poll_interval <= 0:
            raise ValueError(f"tcp poll_interval must be > 0, got {poll_interval!r}")
        if stale_after <= 0:
            raise ValueError(f"tcp stale_after must be > 0, got {stale_after!r}")
        if not 0 <= int(port) <= 65535:
            raise ValueError(f"tcp port must be in [0, 65535], got {port!r}")
        self.poll_interval = poll_interval
        self.coordinator = Coordinator(
            host=host, port=int(port), stale_after=stale_after, max_payload=max_payload
        )
        self._procs: List[subprocess.Popen] = []

    def describe(self, workers: int) -> str:
        suffix = f"[tcp {self.coordinator.host}:{self.coordinator.port}]"
        if workers <= 0:
            return f"external worker(s) {suffix}"
        return f"{workers} worker(s) {suffix}"

    def stats(self) -> Optional[ExecutorStats]:
        return self.coordinator.stats()

    def start(self) -> int:
        """Bind the coordinator now (tests use port 0 to learn the port)."""
        return self.coordinator.start()

    def _spawn_local_workers(self, workers: int, progress: bool) -> None:
        if self._procs or workers <= 0:
            return
        import repro

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src_dir] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable,
            "-m",
            "repro.experiments",
            "worker",
            "--connect",
            f"127.0.0.1:{self.coordinator.port}",
            "--poll-interval",
            str(self.poll_interval),
        ]
        if not progress:
            command.append("--quiet")
        for _ in range(workers):
            self._procs.append(subprocess.Popen(command, env=env))

    def map_runs(self, pending, execute, record, fail, *, workers, label, progress):
        del execute  # workers run leased runs with their own execute_run
        self.coordinator.start()
        by_task: Dict[str, List[tuple]] = {}
        for key, run in pending:
            by_task.setdefault(run.cache_key(), []).append((key, run))
        for task_id, entries in by_task.items():
            self.coordinator.submit(task_id, entries[0][1])
        self._spawn_local_workers(workers, progress)

        import copy

        outstanding = set(by_task)
        last_wait_note = time.monotonic()
        while outstanding:
            results, errors = self.coordinator.drain(timeout=self.poll_interval)
            progressed = False
            for task_id in sorted(results):
                if task_id not in outstanding:
                    continue
                result = results[task_id]
                result.from_cache = False
                for index, (key, run) in enumerate(by_task[task_id]):
                    entry = result if index == 0 else copy.deepcopy(result)
                    # several pending runs may share this cache key but
                    # differ in run_id/params; stamp each entry's own
                    entry.run_id = run.run_id
                    entry.params = dict(run.params)
                    try:
                        record(key, entry)
                    except Exception as exc:
                        fail(run, exc)
                outstanding.discard(task_id)
                progressed = True
            for task_id in sorted(errors):
                if task_id not in outstanding:
                    continue
                error = errors[task_id]
                exc = WorkerTaskError(
                    f"leased run {error.get('run_id', task_id)} failed on a "
                    f"worker: {error.get('error', 'unknown error')}"
                )
                for key, run in by_task[task_id]:
                    fail(run, exc)
                outstanding.discard(task_id)
                progressed = True
            self.coordinator.reclaim_stale()
            if not outstanding or progressed:
                last_wait_note = time.monotonic()
                continue
            if time.monotonic() - last_wait_note >= 10.0:
                _total, leased, connected = self.coordinator.status()
                _log(
                    progress,
                    f"[{label}] tcp {self.coordinator.address}: waiting on "
                    f"{len(outstanding)} run(s) ({leased} leased, {connected} "
                    "worker(s) connected); attach workers with `python -m "
                    f"repro.experiments worker --connect {self.coordinator.address}`",
                )
                last_wait_note = time.monotonic()
            if (
                self._procs
                and all(proc.poll() is not None for proc in self._procs)
                and self.coordinator.worker_count() == 0
            ):
                codes = [proc.returncode for proc in self._procs]
                exc = WorkerTaskError(
                    f"all {len(self._procs)} local tcp worker(s) exited "
                    f"(exit codes {codes}) with {len(outstanding)} run(s) "
                    "outstanding and no external workers connected; "
                    "completed runs are cached -- a re-run resumes from them"
                )
                for task_id in sorted(outstanding):
                    for key, run in by_task[task_id]:
                        fail(run, exc)
                return

    def close(self) -> None:
        self.coordinator.close(grace=max(10 * self.poll_interval, 5.0))
        deadline = time.monotonic() + max(10 * self.poll_interval, 5.0)
        for proc in self._procs:
            try:
                proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
            except subprocess.TimeoutExpired:  # pragma: no cover - slow worker
                proc.terminate()
                proc.wait()
        self._procs = []
