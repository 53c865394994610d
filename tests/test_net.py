"""Tests of the networked (``tcp``) executor: protocol, leases, churn.

Covers the wire layer (frame round-trips, fuzzed-garbage and oversize
rejection, version negotiation refusing mismatched workers with the
reason on the wire), the shared lease state machine in
:mod:`repro.experiments.leases`, and the coordinator/worker protocol
end to end over real sockets: a worker killed mid-run has its lease
reclaimed and the run re-executed exactly once, a silent worker's lease
goes stale and its late result is dropped (exactly-once recording), two
workers never double-execute, tcp sweeps produce artifacts
byte-identical to the process pool, and a warm cache replays with zero
executions without the coordinator ever binding a socket.
"""

import io
import random
import socket
import threading
import time

import pytest

from repro.experiments.executors import EXECUTORS, Executor, make_executor
from repro.experiments.leases import (
    DEFAULT_STALE_AFTER,
    ExecutorStats,
    LeaseLost,
    LeaseTable,
    is_stale,
)
from repro.experiments.net import protocol
from repro.experiments.net.coordinator import Coordinator, TcpExecutor
from repro.experiments.net.protocol import (
    FrameConnection,
    ProtocolError,
    pack_frame,
    recv_frame,
)
from repro.experiments.net.worker import (
    NetWorkerError,
    parse_address,
    run_net_worker,
)
from repro.experiments.orchestrator import (
    RunResult,
    SweepError,
    SweepSpec,
    expand_spec,
    export_csv,
    register_hook,
    run_sweep,
)
from repro.experiments.scenarios import ScenarioConfig


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


def stub_result(run, pdr=1.0) -> RunResult:
    return RunResult(
        run_id=run.run_id,
        params=dict(run.params),
        seed=run.seed,
        duration=run.duration,
        metrics={"pdr": pdr},
        cache_key=run.cache_key(),
    )


def wait_until(predicate, timeout=15.0, message="condition never held"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    pytest.fail(message)


def connect_raw(port, worker="raw-worker"):
    """A hand-driven worker connection, handshake already done."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=15)
    conn = FrameConnection(sock)
    conn.send(protocol.FRAME_HELLO, protocol.hello_payload(worker))
    kind, payload = conn.recv()
    assert kind == protocol.FRAME_HELLO
    return conn, payload


def run_with_tcp(spec, n_workers=2, **sweep_kwargs):
    """Drive ``spec`` through the tcp backend with in-thread net workers.

    The backend binds an ephemeral port, plain ``run_net_worker`` loops
    in background threads stand in for `python -m repro.experiments
    worker --connect` processes and detach when the coordinator closes.
    """
    backend = TcpExecutor(port=0, poll_interval=0.02)
    port = backend.start()
    threads = [
        threading.Thread(
            target=run_net_worker,
            args=(("127.0.0.1", port),),
            kwargs=dict(worker_id=f"nw{i}", poll_interval=0.02, max_retries=2),
        )
        for i in range(n_workers)
    ]
    for thread in threads:
        thread.start()
    try:
        return run_sweep(spec, workers=0, executor=backend, **sweep_kwargs)
    finally:
        backend.close()  # idempotent; run_sweep already closed on its way out
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)


class TestFrames:
    @pytest.mark.parametrize(
        "kind",
        [
            protocol.FRAME_HELLO,
            protocol.FRAME_LEASE,
            protocol.FRAME_HEARTBEAT,
            protocol.FRAME_RESULT,
            protocol.FRAME_ERROR,
            protocol.FRAME_DRAIN,
            protocol.FRAME_CLOSE,
        ],
    )
    def test_every_kind_round_trips(self, kind):
        payload = {"task_id": "t1", "n": 3, "nested": {"pdr": 0.5}}
        kind_back, payload_back = recv_frame(io.BytesIO(pack_frame(kind, payload)))
        assert kind_back == kind
        assert payload_back == payload

    def test_empty_payload_round_trips_as_empty_dict(self):
        assert recv_frame(io.BytesIO(pack_frame(protocol.FRAME_DRAIN))) == (
            protocol.FRAME_DRAIN,
            {},
        )

    def test_payload_key_order_is_preserved(self):
        # CSV column order is derived from metrics dict insertion order;
        # the wire must never re-sort it or tcp artifacts diverge
        metrics = {"zeta": 1.0, "alpha": 2.0, "mid": 3.0}
        _, back = recv_frame(
            io.BytesIO(pack_frame(protocol.FRAME_RESULT, {"metrics": metrics}))
        )
        assert list(back["metrics"]) == ["zeta", "alpha", "mid"]

    def test_unknown_kind_is_refused_on_send(self):
        with pytest.raises(ProtocolError, match="unknown frame kind"):
            pack_frame("gossip", {})

    def test_oversize_payload_is_refused_on_send(self):
        with pytest.raises(ProtocolError, match="cap"):
            pack_frame(protocol.FRAME_RESULT, {"blob": "x" * 64}, max_payload=32)

    def test_oversize_length_prefix_is_refused_on_receive(self):
        # a corrupt length must be rejected before any allocation
        header = protocol._HEADER.pack(2**31, 4)
        with pytest.raises(ProtocolError, match="exceeds cap"):
            recv_frame(io.BytesIO(header))

    def test_unknown_type_byte_is_refused(self):
        with pytest.raises(ProtocolError, match="unknown frame type"):
            recv_frame(io.BytesIO(protocol._HEADER.pack(0, 99)))

    def test_truncated_payload_is_a_protocol_error(self):
        frame = pack_frame(protocol.FRAME_HELLO, {"version": 1, "worker": "w"})
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(io.BytesIO(frame[:-3]))

    def test_truncated_header_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_frame(io.BytesIO(b"\x00\x00"))

    def test_clean_eof_returns_none(self):
        assert recv_frame(io.BytesIO(b"")) is None

    def test_non_json_payload_is_a_protocol_error(self):
        frame = protocol._HEADER.pack(4, 1) + b"\xff\xfe\xfd\xfc"
        with pytest.raises(ProtocolError, match="not valid JSON"):
            recv_frame(io.BytesIO(frame))

    def test_non_object_json_payload_is_a_protocol_error(self):
        body = b"[1,2]"
        frame = protocol._HEADER.pack(len(body), 1) + body
        with pytest.raises(ProtocolError, match="JSON object"):
            recv_frame(io.BytesIO(frame))

    def test_fuzzed_garbage_never_escapes_protocol_error(self):
        # deterministic fuzz: whatever bytes arrive, the reader returns a
        # frame, a clean EOF, or ProtocolError -- never another exception
        rng = random.Random(0xC0FFEE)
        for _ in range(300):
            blob = rng.randbytes(rng.randint(0, 96))
            reader = io.BytesIO(blob)
            try:
                while recv_frame(reader, max_payload=1024) is not None:
                    pass
            except ProtocolError:
                pass

    def test_run_spec_round_trips_through_lease_encoding(self):
        (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
        back = protocol.decode_run(protocol.encode_run(run))
        assert back.run_id == run.run_id
        assert back.cache_key() == run.cache_key()

    def test_undecodable_lease_payload_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="undecodable run"):
            protocol.decode_run("!!! not base64 pickle !!!")

    def test_result_round_trips_through_result_encoding(self):
        (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
        result = stub_result(run, pdr=0.75)
        back = protocol.decode_result(protocol.encode_result(result))
        assert back.to_dict() == result.to_dict()

    def test_hello_version_mismatch_is_a_protocol_error(self):
        with pytest.raises(ProtocolError, match="version mismatch"):
            protocol.check_hello({"version": 999, "worker": "w"})
        with pytest.raises(ProtocolError, match="no worker id"):
            protocol.check_hello({"version": protocol.PROTOCOL_VERSION})


class TestLeaseStateMachine:
    def test_claim_is_exclusive_while_live(self):
        table = LeaseTable(stale_after=30.0)
        assert table.claim("t1", "a", now=100.0)
        assert not table.claim("t1", "b", now=110.0)
        assert table.owner("t1") == "a"

    def test_stale_incumbent_is_displaced(self):
        table = LeaseTable(stale_after=30.0)
        assert table.claim("t1", "dead", now=100.0)
        assert table.claim("t1", "rescuer", now=140.0)
        assert table.owner("t1") == "rescuer"

    def test_heartbeat_keeps_lease_alive(self):
        table = LeaseTable(stale_after=30.0)
        table.claim("t1", "busy", now=100.0)
        table.heartbeat("t1", "busy", now=125.0)
        assert not table.claim("t1", "thief", now=140.0)

    def test_heartbeat_by_dispossessed_worker_raises(self):
        table = LeaseTable(stale_after=30.0)
        table.claim("t1", "stalled", now=100.0)
        table.claim("t1", "thief", now=140.0)
        with pytest.raises(LeaseLost):
            table.heartbeat("t1", "stalled", now=141.0)

    def test_release_by_dispossessed_worker_is_a_noop(self):
        table = LeaseTable(stale_after=30.0)
        table.claim("t1", "stalled", now=100.0)
        table.claim("t1", "thief", now=140.0)
        assert not table.release("t1", "stalled")
        assert table.owner("t1") == "thief"
        assert table.release("t1", "thief")
        assert table.owner("t1") is None

    def test_touch_owner_refreshes_every_lease_it_holds(self):
        table = LeaseTable(stale_after=30.0)
        table.claim("t1", "w", now=100.0)
        table.claim("t2", "w", now=100.0)
        table.claim("t3", "other", now=100.0)
        table.touch_owner("w", now=129.0)
        assert [l.task_id for l in table.reclaim_stale(now=131.0)] == ["t3"]
        assert len(table) == 2

    def test_release_owner_drops_all_of_a_disconnected_workers_leases(self):
        table = LeaseTable(stale_after=30.0)
        table.claim("t1", "w", now=100.0)
        table.claim("t2", "w", now=100.0)
        table.claim("t3", "other", now=100.0)
        dropped = {l.task_id for l in table.release_owner("w")}
        assert dropped == {"t1", "t2"}
        assert table.owner("t3") == "other"

    def test_is_stale_only_strictly_past_stale_after(self):
        assert not is_stale(DEFAULT_STALE_AFTER, DEFAULT_STALE_AFTER)
        assert is_stale(DEFAULT_STALE_AFTER + 0.001, DEFAULT_STALE_AFTER)

    def test_stats_bool_add_and_describe(self):
        stats = ExecutorStats()
        assert not stats
        stats.add(ExecutorStats(leases_reclaimed=2, workers_seen=3, workers_lost=1,
                                runs_reexecuted=2))
        assert stats
        assert stats.describe() == (
            "2 lease(s) reclaimed, 2 run(s) re-executed, 3 worker(s) seen, 1 lost"
        )


class TestWorkerCli:
    def test_parse_address(self):
        assert parse_address("host.example:7653") == ("host.example", 7653)
        for bad in ("no-port", ":7653", "host:", "host:notaport", "host:70000"):
            with pytest.raises(ValueError):
                parse_address(bad)

    def test_worker_connect_rejects_bad_address(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["worker", "--connect", "nonsense"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err

    def test_executors_subcommand_lists_tcp(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["executors"]) == 0
        assert "tcp" in capsys.readouterr().out

    def test_make_executor_passes_instances_through(self):
        backend = TcpExecutor(port=0)
        assert make_executor(backend) is backend
        with pytest.raises(ValueError, match="options"):
            make_executor(backend, poll_interval=0.1)

    def test_tcp_is_registered(self):
        assert "tcp" in EXECUTORS.names()

    def test_tcp_executor_validates_options(self):
        with pytest.raises(ValueError, match="poll_interval"):
            TcpExecutor(poll_interval=0.0)
        with pytest.raises(ValueError, match="stale_after"):
            TcpExecutor(stale_after=-1.0)
        with pytest.raises(ValueError, match="port"):
            TcpExecutor(port=99999)


class TestCoordinatorChurn:
    """Real-socket tests of lease reclaim, refusal and exactly-once."""

    def make_coordinator(self, **kwargs):
        coord = Coordinator(port=0, **kwargs)
        coord.start()
        return coord

    def test_version_mismatch_is_refused_with_the_reason_on_the_wire(self):
        coord = self.make_coordinator()
        try:
            sock = socket.create_connection(("127.0.0.1", coord.port), timeout=15)
            conn = FrameConnection(sock)
            conn.send(protocol.FRAME_HELLO, {"version": 999, "worker": "old"})
            kind, payload = conn.recv()
            assert kind == protocol.FRAME_ERROR
            assert payload["fatal"] is True
            assert "version mismatch" in payload["error"]
            assert conn.recv() is None  # refused connections are dropped
            conn.close()

            # the coordinator survives and still serves a good worker
            (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
            coord.submit(run.cache_key(), run)
            executed = run_net_worker(
                ("127.0.0.1", coord.port),
                worker_id="good",
                poll_interval=0.02,
                execute=stub_result,
                max_tasks=1,
                max_retries=2,
            )
            assert executed == 1
        finally:
            coord.close(grace=0.2)

    def test_mismatched_worker_fails_loudly_instead_of_retrying(self, monkeypatch):
        coord = self.make_coordinator()
        try:
            monkeypatch.setattr(
                protocol, "hello_payload",
                lambda wid: {"version": 999, "worker": wid},
            )
            with pytest.raises(NetWorkerError, match="refused"):
                run_net_worker(
                    ("127.0.0.1", coord.port),
                    worker_id="old",
                    poll_interval=0.02,
                    max_retries=2,
                )
        finally:
            coord.close(grace=0.2)

    def test_malformed_frame_kills_the_connection_not_the_coordinator(self):
        coord = self.make_coordinator()
        try:
            # garbage straight onto the socket: a corrupt length prefix
            sock = socket.create_connection(("127.0.0.1", coord.port), timeout=15)
            sock.sendall(b"\xff" * 64)
            reader = sock.makefile("rb")
            assert reader.read(1) == b""  # connection killed
            sock.close()

            (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
            coord.submit(run.cache_key(), run)
            executed = run_net_worker(
                ("127.0.0.1", coord.port),
                worker_id="good",
                poll_interval=0.02,
                execute=stub_result,
                max_tasks=1,
                max_retries=2,
            )
            assert executed == 1
        finally:
            coord.close(grace=0.2)

    def test_killed_worker_lease_is_reclaimed_and_reexecuted_exactly_once(self):
        # the in-pytest stand-in for `kill -9` mid-run: a worker takes a
        # lease then its socket dies without a close frame
        coord = self.make_coordinator(stale_after=30.0)
        try:
            (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
            task_id = run.cache_key()
            coord.submit(task_id, run)

            conn, _hello = connect_raw(coord.port, worker="doomed")
            conn.send(protocol.FRAME_DRAIN, {})
            kind, payload = conn.recv()
            assert kind == protocol.FRAME_LEASE and payload["task_id"] == task_id
            conn.close()  # abrupt: no close frame, mid-run

            wait_until(
                lambda: coord.stats().leases_reclaimed >= 1,
                message="disconnect never reclaimed the lease",
            )
            executed = run_net_worker(
                ("127.0.0.1", coord.port),
                worker_id="rescuer",
                poll_interval=0.02,
                execute=stub_result,
                max_tasks=1,
                max_retries=2,
            )
            assert executed == 1
            results, errors = coord.drain(timeout=5.0)
            assert errors == {}
            assert list(results) == [task_id]  # recorded exactly once
            stats = coord.stats()
            assert stats.leases_reclaimed == 1
            assert stats.workers_lost == 1
            assert stats.runs_reexecuted == 1
            assert stats.workers_seen == 2
        finally:
            coord.close(grace=0.2)

    def test_silent_workers_late_result_is_dropped(self):
        # a worker that stays connected but never heartbeats loses its
        # lease to the poll loop; its late result must not overwrite the
        # rescuer's (exactly-once recording)
        coord = self.make_coordinator(stale_after=0.2)
        try:
            (run,) = expand_spec(tiny_spec(grid={}, seeds=(1,)))
            task_id = run.cache_key()
            coord.submit(task_id, run)

            conn, _hello = connect_raw(coord.port, worker="silent")
            conn.send(protocol.FRAME_DRAIN, {})
            kind, payload = conn.recv()
            assert kind == protocol.FRAME_LEASE
            time.sleep(0.5)  # well past stale_after, no heartbeat
            assert coord.reclaim_stale() == 1

            executed = run_net_worker(
                ("127.0.0.1", coord.port),
                worker_id="rescuer",
                poll_interval=0.02,
                execute=stub_result,
                max_tasks=1,
                max_retries=2,
            )
            assert executed == 1

            # now the dispossessed worker finishes late
            late = stub_result(run, pdr=-999.0)
            conn.send(
                protocol.FRAME_RESULT,
                {"task_id": task_id, "result": protocol.encode_result(late)},
            )
            kind, _payload = conn.recv()
            assert kind == protocol.FRAME_RESULT  # still acked, but dropped
            conn.send(protocol.FRAME_CLOSE, {})
            conn.close()

            results, errors = coord.drain(timeout=5.0)
            assert errors == {}
            assert list(results) == [task_id]
            assert results[task_id].metrics["pdr"] != -999.0
            stats = coord.stats()
            assert stats.leases_reclaimed == 1
            assert stats.runs_reexecuted == 1
        finally:
            coord.close(grace=0.2)

    def test_close_returns_while_a_silent_worker_stays_connected(self):
        # a hung worker keeps its socket open but never sends again; the
        # driver's close must still return instead of waiting forever on
        # the handler thread's blocked read
        coord = self.make_coordinator()
        conn, _hello = connect_raw(coord.port, worker="hung")
        try:
            closer = threading.Thread(
                target=coord.close, kwargs={"grace": 0.2}, daemon=True
            )
            closer.start()
            closer.join(timeout=5.0)
            assert not closer.is_alive(), "close() hung on a silent worker"
            assert conn.recv() is None  # the coordinator dropped us
        finally:
            conn.close()

    def test_two_workers_never_double_execute(self):
        coord = self.make_coordinator(stale_after=30.0)
        try:
            runs = expand_spec(tiny_spec(grid={"n_nodes": [10, 12, 14]}, seeds=(1, 2)))
            for run in runs:
                coord.submit(run.cache_key(), run)

            counts = {}
            lock = threading.Lock()

            def counting_execute(run):
                with lock:
                    counts[run.run_id] = counts.get(run.run_id, 0) + 1
                time.sleep(0.01)  # widen the lease/execute race window
                return stub_result(run)

            threads = [
                threading.Thread(
                    target=run_net_worker,
                    args=(("127.0.0.1", coord.port),),
                    kwargs=dict(
                        worker_id=f"w{i}",
                        poll_interval=0.01,
                        execute=counting_execute,
                        max_retries=2,
                    ),
                )
                for i in (1, 2)
            ]
            for thread in threads:
                thread.start()
            completed = {}
            deadline = time.monotonic() + 30.0
            while len(completed) < len(runs) and time.monotonic() < deadline:
                results, errors = coord.drain(timeout=0.2)
                assert errors == {}
                completed.update(results)
        finally:
            coord.close(grace=2.0)
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(completed) == len(runs)
        assert counts == {run.run_id: 1 for run in runs}


class _ChurnyExecutor(Executor):
    """Serial execution that pretends it survived worker churn."""

    name = "churny"

    def map_runs(self, pending, execute, record, fail, *, workers, label,
                 progress):
        for key, run in pending:
            record(key, execute(run))

    def stats(self):
        return ExecutorStats(
            leases_reclaimed=2, workers_seen=3, workers_lost=1, runs_reexecuted=2
        )


class TestTcpSweeps:
    def test_tcp_sweep_is_byte_identical_to_process(self, tmp_path):
        spec = tiny_spec()
        reference = run_sweep(
            spec, workers=2, cache_dir=str(tmp_path / "cache-ref"),
            executor="process",
        )
        over_tcp = run_with_tcp(spec, cache_dir=str(tmp_path / "cache-tcp"))
        assert all(not r.from_cache for r in over_tcp)
        ref_csv, tcp_csv = str(tmp_path / "ref.csv"), str(tmp_path / "tcp.csv")
        export_csv(reference, ref_csv)
        export_csv(over_tcp, tcp_csv)
        with open(ref_csv, "rb") as fh:
            ref_bytes = fh.read()
        with open(tcp_csv, "rb") as fh:
            assert fh.read() == ref_bytes

    def test_warm_cache_replays_without_ever_binding_a_socket(self, tmp_path):
        spec = tiny_spec()
        cache_dir = str(tmp_path / "cache")
        reference = run_sweep(spec, workers=1, cache_dir=cache_dir, executor="serial")
        backend = TcpExecutor(port=0)
        replay = run_sweep(spec, workers=0, cache_dir=cache_dir, executor=backend)
        assert all(r.from_cache for r in replay)
        assert [r.metrics for r in replay] == [r.metrics for r in reference]
        # zero cache misses: the coordinator never started listening
        assert backend.coordinator._server is None
        assert backend.coordinator.port == 0

    def test_remote_failure_is_reported(self, tmp_path):
        @register_hook("tcp_explode")
        def _explode(scenario):
            raise RuntimeError("boom over tcp")

        spec = tiny_spec(seeds=(1,), grid={}, during_run="tcp_explode")
        with pytest.raises(SweepError, match="boom over tcp"):
            run_with_tcp(spec, n_workers=1, cache_dir=str(tmp_path / "cache"))

    def test_churn_counters_surface_in_the_run_summary(self, capsys):
        run_sweep(tiny_spec(seeds=(1,), grid={}), executor=_ChurnyExecutor(),
                  progress=True)
        err = capsys.readouterr().err
        assert (
            "[tiny] churn: 2 lease(s) reclaimed, 2 run(s) re-executed, "
            "3 worker(s) seen, 1 lost" in err
        )

    def test_quiet_backends_log_no_churn_line(self, capsys):
        run_sweep(tiny_spec(seeds=(1,), grid={}), executor="serial", progress=True)
        assert "churn" not in capsys.readouterr().err
