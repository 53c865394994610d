"""A frame received by broadcast is shared by its receivers and read-only.

``Network.transmit`` hands every receiver of one broadcast the same
received frame (the contract is written on
:class:`~repro.simulation.packet.Packet`).  Here a small seeded scenario
runs under every registered protocol stack, and every receiver is held
to that contract: each frame of a broadcast fan-out is pickled when the
fan-out is scheduled (every ``Packet`` field, ``headers`` and ``payload``
included), and its pickle must be unchanged after each receiver's
``Network._deliver`` returns and again at the end of the run.
"""

from __future__ import annotations

import pickle

import pytest

from repro.experiments.runner import run_scenario
from repro.experiments.scenarios import ScenarioConfig
from repro.registry import PROTOCOL_STACKS
from repro.simulation.engine import Simulator
from repro.simulation.network import Network

#: the stacks that send broadcasts; SGM forwards by geo-unicast only
BROADCASTING = {"dsm", "flooding", "hvdb", "spbm"}


def contract_config(protocol: str) -> ScenarioConfig:
    """40 nodes at about eight neighbours each, data from 5 s on."""
    return ScenarioConfig(
        protocol=protocol,
        n_nodes=40,
        area_size=1000.0,
        group_size=8,
        traffic_start=5.0,
        seed=3,
    )


def test_every_builtin_stack_is_covered():
    assert BROADCASTING | {"sgm"} <= set(PROTOCOL_STACKS.names())


@pytest.mark.parametrize("protocol", PROTOCOL_STACKS.names())
def test_receivers_leave_the_shared_frame_unchanged(protocol, monkeypatch):
    #: id(frame) -> [frame, its pickle when scheduled, receivers checked]
    frames = {}
    schedule = Simulator.schedule
    deliver = Network._deliver

    def snapshotting_schedule(self, delay, callback, priority=0, each=None, args=()):
        if each is not None:
            shared = {id(frame) for _, frame, _ in each}
            assert len(shared) == 1, "one broadcast, one received frame"
            frame = each[0][1]
            frames[id(frame)] = [frame, pickle.dumps(frame), 0]
        return schedule(self, delay, callback, priority, each, args)

    def checking_deliver(self, receiver, packet, sender):
        deliver(self, receiver, packet, sender)
        entry = frames.get(id(packet))
        if entry is not None:
            assert pickle.dumps(packet) == entry[1], (
                f"node {receiver.node_id} changed a broadcast frame it shares: {packet!r}"
            )
            entry[2] += 1

    monkeypatch.setattr(Simulator, "schedule", snapshotting_schedule)
    monkeypatch.setattr(Network, "_deliver", checking_deliver)
    run_scenario(contract_config(protocol), duration=30.0)

    for frame, snapshot, _ in frames.values():
        assert pickle.dumps(frame) == snapshot, f"a broadcast frame changed later: {frame!r}"
    shared = sum(1 for _, _, receivers in frames.values() if receivers >= 2)
    # not vacuous: every broadcasting stack shares frames here
    assert (shared > 0) == (protocol in BROADCASTING), shared
