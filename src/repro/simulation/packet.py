"""Packets exchanged between simulated nodes.

A packet carries a protocol-defined ``kind`` and a free-form ``headers``
dictionary (the simulated header fields, e.g. an encapsulated multicast
tree) plus an opaque ``payload``.  Sizes are tracked in bytes so control
overhead can be reported both in messages and in bytes.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

_packet_ids = itertools.count(1)


class PacketKind(enum.Enum):
    """Coarse classification used by the metrics layer."""

    DATA = "data"           #: application multicast payload
    CONTROL = "control"     #: protocol control traffic (beacons, summaries)
    MANAGEMENT = "management"  #: clustering / neighbour discovery


@dataclass(slots=True)
class Packet:
    """A simulated packet.

    ``uid`` identifies the logical packet end-to-end (copies made while
    forwarding keep the uid, so delivery ratio is counted per original
    packet).  ``hops`` counts physical transmissions experienced by this
    copy.

    A received packet is read-only when it came by broadcast: every
    receiver of one broadcast is handed the same object, so a receiver
    that wants to change it (a header, ``hops``) calls
    :meth:`copy_for_forwarding` first and changes the copy.  A unicast
    delivery hands its one receiver a copy of its own.
    ``Network.transmit`` never writes the packet it is given, so a
    received packet can be broadcast again as it is.
    """

    kind: PacketKind
    protocol: str
    msg_type: str
    source: int
    group: Optional[int] = None
    destination: Optional[int] = None
    payload: Any = None
    headers: Dict[str, Any] = field(default_factory=dict)
    size_bytes: int = 64
    created_at: float = 0.0
    uid: int = field(default_factory=lambda: next(_packet_ids))
    hops: int = 0
    logical_hops: int = 0

    def copy_for_forwarding(self) -> "Packet":
        """Duplicate the packet for forwarding along another branch.

        The uid, creation time and hop counters are preserved; the headers
        dictionary is shallow-copied so a forwarder can rewrite its own
        entries (e.g. re-encapsulate a multicast sub-tree) without
        affecting sibling copies.  Header *values* stay shared: a forwarder
        installs a new value rather than mutating the one it received.
        This is the one way to change a packet received by broadcast,
        which is shared by every receiver of that broadcast; passing it on
        unchanged needs no copy, since ``Network.transmit`` makes the
        on-air copy itself.
        """
        # field by field, around the generated __init__: its default-factory
        # checks cost more than the copy itself, made once per frame sent
        copy = object.__new__(Packet)
        copy.kind = self.kind
        copy.protocol = self.protocol
        copy.msg_type = self.msg_type
        copy.source = self.source
        copy.group = self.group
        copy.destination = self.destination
        copy.payload = self.payload
        copy.headers = dict(self.headers)
        copy.size_bytes = self.size_bytes
        copy.created_at = self.created_at
        copy.uid = self.uid
        copy.hops = self.hops
        copy.logical_hops = self.logical_hops
        return copy

    def age(self, now: float) -> float:
        """Seconds since the packet was created."""
        return now - self.created_at

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Packet(uid={self.uid}, {self.protocol}/{self.msg_type}, "
            f"src={self.source}, group={self.group}, dst={self.destination}, "
            f"hops={self.hops})"
        )


def control_packet(
    protocol: str,
    msg_type: str,
    source: int,
    size_bytes: int,
    now: float,
    destination: Optional[int] = None,
    headers: Optional[Dict[str, Any]] = None,
) -> Packet:
    """Convenience constructor for control-plane packets."""
    return Packet(
        kind=PacketKind.CONTROL,
        protocol=protocol,
        msg_type=msg_type,
        source=source,
        destination=destination,
        headers=headers or {},
        size_bytes=size_bytes,
        created_at=now,
    )


def data_packet(
    protocol: str,
    source: int,
    group: int,
    payload: Any,
    size_bytes: int,
    now: float,
    headers: Optional[Dict[str, Any]] = None,
) -> Packet:
    """Convenience constructor for application data packets."""
    return Packet(
        kind=PacketKind.DATA,
        protocol=protocol,
        msg_type="data",
        source=source,
        group=group,
        payload=payload,
        headers=headers or {},
        size_bytes=size_bytes,
        created_at=now,
    )
