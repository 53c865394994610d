"""Multicast traffic sources.

Experiments drive the protocols with constant-bit-rate (CBR) multicast
sources attached to specific nodes.  Sources talk to the node's
multicast protocol agent through the :class:`~repro.simulation.agent.ProtocolAgent.send_multicast`
entry point, so the same source works with the HVDB protocol and with
every baseline.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.simulation.engine import PeriodicTimer
from repro.simulation.network import Network


class CbrMulticastSource:
    """Constant-bit-rate multicast source.

    Sends one ``payload_bytes`` packet to ``group`` every ``interval``
    seconds through the named protocol agent on ``source_node``.
    """

    def __init__(
        self,
        network: Network,
        source_node: int,
        group: int,
        protocol_name: str,
        interval: float = 1.0,
        payload_bytes: int = 512,
        start_time: float = 0.0,
        stop_time: Optional[float] = None,
        jitter: float = 0.0,
        seed: Optional[int] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if payload_bytes <= 0:
            raise ValueError("payload size must be positive")
        self.network = network
        self.source_node = source_node
        self.group = group
        self.protocol_name = protocol_name
        self.interval = interval
        self.payload_bytes = payload_bytes
        self.stop_time = stop_time
        self.packets_sent = 0
        self._seq = 0
        rng = random.Random(seed) if jitter > 0 else None
        self._timer = PeriodicTimer(
            network.simulator,
            interval,
            self._emit,
            initial_delay=max(start_time, 1e-9),
            jitter=jitter,
            rng=rng,
        )

    def _emit(self) -> None:
        now = self.network.simulator.now
        if self.stop_time is not None and now > self.stop_time:
            self._timer.stop()
            return
        node = self.network.node(self.source_node)
        if not node.alive:
            return
        agent = node.agent(self.protocol_name)
        self._seq += 1
        agent.send_multicast(self.group, payload=("cbr", self._seq), size_bytes=self.payload_bytes)
        self.packets_sent += 1
