"""Networked sweep execution: the ``tcp`` coordinator/worker subsystem.

The local backends of :mod:`repro.experiments.executors` scale a sweep
across the driver's own cores; this package scales it across every
machine the driver can reach over TCP, leasing runs to workers under the
lease/heartbeat/stale-reclaim state machine of
:mod:`repro.experiments.leases`:

* :mod:`repro.experiments.net.protocol` -- the wire format:
  length-prefixed, versioned JSON frames
  (hello/lease/heartbeat/result/error/drain/close) with payload caps and
  malformed-frame rejection that kills a connection, never the
  coordinator;
* :mod:`repro.experiments.net.coordinator` -- the driver side:
  :class:`Coordinator` leases pending runs to connected workers, judges
  lease staleness on its own monotonic clock from last-message-received,
  reclaims on disconnect or silence, and collects streamed results;
  :class:`TcpExecutor` registers it as the ``tcp`` executor backend;
* :mod:`repro.experiments.net.worker` -- the remote side:
  :func:`run_net_worker` behind ``python -m repro.experiments worker
  --connect HOST:PORT``, executing leased runs with a background
  heartbeat thread and reconnecting with jittered exponential backoff.

See ``docs/networked-executor.md`` for the frame reference, the lease
lifecycle and deployment recipes.
"""

from repro.experiments.net.coordinator import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    Coordinator,
    TcpExecutor,
)
from repro.experiments.net.protocol import (
    DEFAULT_MAX_PAYLOAD,
    PROTOCOL_VERSION,
    FrameConnection,
    ProtocolError,
)
from repro.experiments.net.worker import NetWorkerError, parse_address, run_net_worker

__all__ = [
    "Coordinator",
    "DEFAULT_HOST",
    "DEFAULT_MAX_PAYLOAD",
    "DEFAULT_PORT",
    "FrameConnection",
    "NetWorkerError",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "TcpExecutor",
    "parse_address",
    "run_net_worker",
]
