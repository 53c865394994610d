"""Wire protocol for the networked (``tcp``) executor.

Everything the coordinator and remote workers exchange travels as
length-prefixed *frames* on one TCP connection per worker:

.. code-block:: text

   +----------------+--------+------------------------+
   | payload length | type   | payload (JSON, UTF-8)  |
   | 4 bytes, BE    | 1 byte | ``length`` bytes       |
   +----------------+--------+------------------------+

Seven frame kinds cover the whole lease protocol -- ``hello`` (version
negotiation, replied with ``hello`` or a fatal ``error``), ``lease``
(coordinator hands a run to a worker), ``heartbeat`` (worker liveness
while executing; never replied to, so a background thread can emit them
without interleaving replies), ``result`` / ``error`` (a finished or
failed run, acked by echoing the kind), ``drain`` (worker asks for work;
an idle coordinator echoes ``drain`` back meaning "nothing leasable
right now, retry") and ``close`` (coordinator: sweep over, detach;
worker: voluntary goodbye).

Safety properties enforced here rather than in callers:

* **version negotiation** -- every ``hello`` carries
  :data:`PROTOCOL_VERSION`; a mismatch is refused with a fatal ``error``
  frame before any run is leased;
* **payload caps** -- frames above ``max_payload`` (default
  :data:`DEFAULT_MAX_PAYLOAD`) are refused on send and on receive, so a
  corrupt length prefix cannot make the coordinator allocate gigabytes;
* **malformed-frame rejection** -- garbage bytes, unknown frame types,
  truncated frames and invalid JSON raise :class:`ProtocolError`, which
  kills that one connection, never the coordinator.

Results cross the wire via the existing
:meth:`~repro.experiments.orchestrator.RunResult.to_dict` /
``from_dict`` round-trip -- the same serialization every result store
uses -- so artifacts from a ``tcp`` sweep stay byte-identical to every
other executor.  Leased :class:`~repro.experiments.orchestrator.RunSpec`
payloads travel as base64-wrapped pickles (both ends run this codebase).
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import struct
import threading
from typing import Any, BinaryIO, Dict, Mapping, Optional, Tuple

#: the one protocol version this build speaks; both ends must match
PROTOCOL_VERSION = 1

#: refuse frames larger than this (a RunResult is a few KiB; 8 MiB
#: leaves room for metric-heavy collectors without letting a corrupt
#: length prefix trigger a giant allocation)
DEFAULT_MAX_PAYLOAD = 8 * 1024 * 1024

_HEADER = struct.Struct(">IB")  # payload length, frame type

#: frame kind <-> wire byte
FRAME_HELLO = "hello"
FRAME_LEASE = "lease"
FRAME_HEARTBEAT = "heartbeat"
FRAME_RESULT = "result"
FRAME_ERROR = "error"
FRAME_DRAIN = "drain"
FRAME_CLOSE = "close"

_KIND_TO_BYTE = {
    FRAME_HELLO: 1,
    FRAME_LEASE: 2,
    FRAME_HEARTBEAT: 3,
    FRAME_RESULT: 4,
    FRAME_ERROR: 5,
    FRAME_DRAIN: 6,
    FRAME_CLOSE: 7,
}
_BYTE_TO_KIND = {code: kind for kind, code in _KIND_TO_BYTE.items()}


class ProtocolError(RuntimeError):
    """A malformed, oversized or out-of-spec frame.

    Raising this is always a connection-level event: the peer that
    produced the bad bytes loses its connection (and its leases go back
    to the pool), while the coordinator keeps serving everyone else.
    """


def pack_frame(
    kind: str,
    payload: Optional[Mapping[str, Any]] = None,
    *,
    max_payload: int = DEFAULT_MAX_PAYLOAD,
) -> bytes:
    """Serialize one frame; :class:`ProtocolError` on unknown kind/oversize."""
    code = _KIND_TO_BYTE.get(kind)
    if code is None:
        raise ProtocolError(f"unknown frame kind {kind!r}")
    # insertion order is preserved, never sorted: a RunResult's metrics
    # dict order is what artifact exporters derive CSV columns from, and
    # byte-identical artifacts across executors is a hard invariant
    body = json.dumps(dict(payload or {}), separators=(",", ":")).encode("utf-8")
    if len(body) > max_payload:
        raise ProtocolError(
            f"{kind} frame payload is {len(body)} bytes (cap {max_payload})"
        )
    return _HEADER.pack(len(body), code) + body


def _read_exact(reader: BinaryIO, n: int) -> bytes:
    """Read exactly ``n`` bytes; b"" only at a clean frame boundary EOF."""
    chunks = []
    remaining = n
    while remaining:
        chunk = reader.read(remaining)
        if not chunk:
            if remaining == n and not chunks:
                return b""
            raise ProtocolError("connection closed mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(
    reader: BinaryIO, *, max_payload: int = DEFAULT_MAX_PAYLOAD
) -> Optional[Tuple[str, Dict[str, Any]]]:
    """Read one frame; ``None`` on clean EOF at a frame boundary.

    Any other shortfall -- truncated header/payload, a length above
    ``max_payload``, an unknown type byte, non-JSON payload -- raises
    :class:`ProtocolError`.
    """
    header = _read_exact(reader, _HEADER.size)
    if not header:
        return None
    length, code = _HEADER.unpack(header)
    if length > max_payload:
        raise ProtocolError(f"frame payload of {length} bytes exceeds cap {max_payload}")
    kind = _BYTE_TO_KIND.get(code)
    if kind is None:
        raise ProtocolError(f"unknown frame type byte {code}")
    body = _read_exact(reader, length) if length else b""
    if length and len(body) != length:
        raise ProtocolError("connection closed mid-frame")
    try:
        payload = json.loads(body.decode("utf-8")) if length else {}
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame payload is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError("frame payload must be a JSON object")
    return kind, payload


class FrameConnection:
    """One end of a framed connection: locked sends, buffered receives.

    The send lock is what lets a worker's background heartbeat thread
    share the socket with the main execute loop -- frames never
    interleave mid-write.  Receives are single-threaded by construction
    (each end has exactly one reader loop).
    """

    def __init__(self, sock: socket.socket, *, max_payload: int = DEFAULT_MAX_PAYLOAD):
        self.sock = sock
        self.max_payload = max_payload
        self._reader = sock.makefile("rb")
        self._send_lock = threading.Lock()

    def send(self, kind: str, payload: Optional[Mapping[str, Any]] = None) -> None:
        frame = pack_frame(kind, payload, max_payload=self.max_payload)
        with self._send_lock:
            self.sock.sendall(frame)

    def recv(self) -> Optional[Tuple[str, Dict[str, Any]]]:
        return recv_frame(self._reader, max_payload=self.max_payload)

    def close(self) -> None:
        # shut the socket down first: a reader blocked in recv() holds the
        # buffered reader's lock, so closing the reader alone would wait
        # for a frame that a silent peer may never send
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


def hello_payload(worker_id: str) -> Dict[str, Any]:
    """The worker's opening frame: who it is and what it speaks."""
    return {"version": PROTOCOL_VERSION, "worker": worker_id}


def check_hello(payload: Mapping[str, Any]) -> str:
    """Validate a worker ``hello``; returns the worker id.

    A version mismatch raises :class:`ProtocolError` -- the coordinator
    reports it back as a fatal ``error`` frame and drops the connection
    before leasing anything.
    """
    version = payload.get("version")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: coordinator speaks {PROTOCOL_VERSION}, "
            f"worker speaks {version!r}"
        )
    worker = payload.get("worker")
    if not isinstance(worker, str) or not worker:
        raise ProtocolError("hello frame carries no worker id")
    return worker


def encode_run(run: Any) -> str:
    """A ``RunSpec`` as it travels inside a ``lease`` frame."""
    return base64.b64encode(pickle.dumps(run)).decode("ascii")


def decode_run(text: str) -> Any:
    """Inverse of :func:`encode_run`; :class:`ProtocolError` on garbage."""
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as exc:  # pickle raises wildly varied types
        raise ProtocolError(f"lease frame carries an undecodable run: {exc}") from exc


def encode_result(result: Any) -> Dict[str, Any]:
    """A ``RunResult`` as it travels inside a ``result`` frame -- the
    same ``to_dict`` round-trip the result stores use, which is what
    keeps tcp artifacts byte-identical to every other executor."""
    return result.to_dict()


def decode_result(payload: Mapping[str, Any]) -> Any:
    """Inverse of :func:`encode_result`."""
    from repro.experiments.orchestrator import RunResult

    try:
        return RunResult.from_dict(dict(payload))
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"result frame carries an undecodable result: {exc}") from exc
