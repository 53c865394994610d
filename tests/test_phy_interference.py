"""The SINR radio's interferer lookup against the spatial-hash lookup it replaced.

:class:`InterferenceMap` keeps its live records in one list, in the
order a 3x3 :class:`SpatialHash` probe yields them: by the cell x of the
sender's position, then its cell y, then by arrival.  The contract is
that every decision is the one the probe gave: the same interferers, in
the same order (the interferer power sum depends on the order of its
terms), and the same answer.  :class:`ReferenceInterferenceMap` and
:class:`ReferenceSinrRadio` are the map and the decision as they were
before the ledger, kept verbatim; every sequence of notes and decisions
here is fed to both.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import replace
from typing import List, Optional

from repro.geo.geometry import Point, distance
from repro.geo.grid import SpatialHash
from repro.simulation.phy import SinrRadio, TransmissionRecord, sinr_db

#: the radio's range; calibrated, its interference radius is 1.8x this
RANGE = 250.0
#: the interference radius, and so the cell size of both lookups
CELL = 450.0


class ReferenceInterferenceMap:
    """Active-transmission ledger with spatial-hash interferer lookup."""

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("interference cell size must be positive")
        self._cell_size = cell_size
        self._records: List[TransmissionRecord] = []
        self._index: Optional[SpatialHash] = None

    def __len__(self) -> int:
        return len(self._records)

    def note(self, record: TransmissionRecord, now: float) -> None:
        """Record a frame; drops every record already ended at ``now``."""
        if record.end <= record.start:
            raise ValueError("transmission interval must have positive length")
        if self._records and self._records[0].end < now:
            self._records = [r for r in self._records if r.end >= now]
        self._records.append(record)
        self._index = None

    def concurrent(
        self,
        receiver_pos: Point,
        start: float,
        end: float,
        radius: float,
        exclude_sender: Optional[int] = None,
    ) -> List[TransmissionRecord]:
        """Frames overlapping ``[start, end]`` within ``radius`` of the receiver."""
        if not self._records:
            return []
        if self._index is None:
            index: SpatialHash = SpatialHash(self._cell_size)
            for record in self._records:
                index.insert(record, record.position)
            self._index = index
        return [
            record
            for record in self._index.candidates(receiver_pos)
            if record.sender != exclude_sender
            and record.overlaps(start, end)
            and distance(record.position, receiver_pos) <= radius + 1e-9
        ]


class ReferenceSinrRadio(SinrRadio):
    """The SINR radio with the reference map and its decision, verbatim."""

    def __init__(self) -> None:
        super().__init__(range_hint=RANGE)
        self._active = ReferenceInterferenceMap(self._interference_radius)

    def rssi_at(self, d: float) -> float:
        """Received signal strength (dBm) at distance ``d`` metres."""
        d = max(d, self.config.reference_distance)
        path_loss = self.reference_loss_db + 10.0 * self.config.path_loss_exponent * math.log10(
            d / self.config.reference_distance
        )
        return self.config.tx_power_dbm - path_loss

    def reception_probability_during(
        self,
        sender: int,
        sender_pos: Point,
        receiver: int,
        receiver_pos: Point,
        start: float,
        end: float,
    ) -> float:
        d = distance(sender_pos, receiver_pos)
        if d > self._range + 1e-9:
            return 0.0
        signal = self.rssi_at(d)
        if signal < self.config.sensitivity_dbm - 1e-9:
            return 0.0
        interferers = self._active.concurrent(
            receiver_pos, start, end, self._interference_radius, exclude_sender=sender
        )
        if any(record.sender == receiver for record in interferers):
            return 0.0  # half-duplex: a transmitting node cannot receive
        interference = [self.rssi_at(distance(r.position, receiver_pos)) for r in interferers]
        ratio = sinr_db(signal, interference, self.config.noise_floor_dbm)
        return 1.0 if ratio >= self.config.capture_db else 0.0


class Twin:
    """The radio and the reference radio, fed the same notes and decisions."""

    def __init__(self) -> None:
        self.radio = SinrRadio(range_hint=RANGE)
        self.reference = ReferenceSinrRadio()
        assert self.radio._interference_radius == self.reference._interference_radius == CELL
        #: (interferers, answer) of every decision, in order
        self.decisions: List[tuple] = []

    def note(self, sender: int, position: Point, start: float, end: float) -> None:
        self.radio.note_transmission(sender, position, start, end)
        self.reference.note_transmission(sender, position, start, end)
        assert len(self.radio._active) == len(self.reference._active)

    def decide(
        self,
        sender: int,
        sender_pos: Point,
        receiver: int,
        receiver_pos: Point,
        start: float,
        end: float,
    ) -> float:
        args = (sender, sender_pos, receiver, receiver_pos, start, end)
        answer = self.radio.reception_probability_during(*args)
        assert answer == self.reference.reception_probability_during(*args)
        lookup = (receiver_pos, start, end, CELL)
        expected = self.reference._active.concurrent(*lookup, exclude_sender=sender)
        hits = self.radio._active.concurrent(*lookup, exclude_sender=sender)
        assert [record for record, _d in hits] == expected
        for record, d in hits:
            assert d == distance(record.position, receiver_pos)
        ratio = self.reference_sinr(sender_pos, receiver, receiver_pos, expected)
        if ratio is not None:
            # the radio's SINR is the reference's to the last bit: it clears
            # a capture threshold of exactly that ratio, not the next float up
            assert self.answer_at(ratio, args) == 1.0
            assert self.answer_at(math.nextafter(ratio, math.inf), args) == 0.0
        self.decisions.append((expected, answer))
        return answer

    def reference_sinr(
        self,
        sender_pos: Point,
        receiver: int,
        receiver_pos: Point,
        interferers: List[TransmissionRecord],
    ) -> Optional[float]:
        """The reference decision's SINR, or None where it answers before one."""
        reference = self.reference
        d = distance(sender_pos, receiver_pos)
        if d > reference._range + 1e-9:
            return None
        signal = reference.rssi_at(d)
        if signal < reference.config.sensitivity_dbm - 1e-9:
            return None
        if any(record.sender == receiver for record in interferers):
            return None
        interference = [reference.rssi_at(distance(r.position, receiver_pos)) for r in interferers]
        return sinr_db(signal, interference, reference.config.noise_floor_dbm)

    def answer_at(self, capture_db: float, args: tuple) -> float:
        """The radio's answer to ``args`` with its capture threshold at ``capture_db``."""
        config = self.radio.config
        self.radio.config = replace(config, capture_db=capture_db)
        try:
            return self.radio.reception_probability_during(*args)
        finally:
            self.radio.config = config


def test_empty_ledger():
    twin = Twin()
    assert twin.decide(0, Point(0.0, 0.0), 1, Point(100.0, 0.0), 0.0, 0.01) == 1.0
    assert twin.decisions == [([], 1.0)]


def test_record_two_cells_away_within_the_slack_does_not_count():
    # 450.0000000001 m apart: inside the distance test's 1e-9 slack, but
    # the receiver sits in cell 0 and the sender in cell 2
    twin = Twin()
    receiver = Point(CELL - 1e-10, 0.0)
    twin.note(1, Point(2 * CELL, 0.0), 0.0, 0.01)
    assert distance(Point(2 * CELL, 0.0), receiver) <= CELL + 1e-9
    twin.decide(0, Point(CELL - 100.0, 0.0), 2, receiver, 0.0, 0.01)
    # with the receiver on the edge itself, the record is one cell away
    twin.decide(0, Point(CELL + 100.0, 0.0), 2, Point(CELL, 0.0), 0.0, 0.01)
    assert [len(interferers) for interferers, _answer in twin.decisions] == [0, 1]


def test_senders_and_receivers_on_both_sides_of_cell_edges():
    twin = Twin()
    edges = [CELL - 1e-9, CELL - 1e-12, CELL, CELL + 1e-12, CELL + 1e-9]
    for sender, x in enumerate(edges):
        twin.note(sender, Point(x, 2 * CELL - x), 0.0, 0.01)
    for receiver, x in enumerate(edges, start=len(edges)):
        for y in (CELL - 1e-9, CELL, CELL + 1e-9):
            twin.decide(0, Point(x - 200.0, y), receiver, Point(x, y), 0.0, 0.01)
            twin.decide(4, Point(x, y + 200.0), receiver, Point(x, y), 0.005, 0.015)
    assert any(len(interferers) >= 3 for interferers, _answer in twin.decisions)


def test_interferers_in_different_cells_come_in_lookup_order():
    twin = Twin()
    receiver = Point(1.5 * CELL, 1.5 * CELL)  # cell (1, 1)
    # noted in an arrival order that is not the lookup order
    arrivals = [
        (1, Point(receiver.x + 390.0, receiver.y)),  # cell (2, 1)
        (2, Point(receiver.x - 430.0, receiver.y)),  # cell (0, 1)
        (3, Point(receiver.x, receiver.y + 375.0)),  # cell (1, 2)
        (4, Point(receiver.x, receiver.y - 270.0)),  # cell (1, 0)
    ]
    for sender, position in arrivals:
        twin.note(sender, position, 0.0, 0.01)
    sender_pos = Point(receiver.x - 30.0, receiver.y + 30.0)
    assert twin.decide(0, sender_pos, 9, receiver, 0.002, 0.012) == 1.0
    ((interferers, _answer),) = twin.decisions
    assert [record.sender for record in interferers] == [2, 4, 3, 1]
    # summed in arrival order, these powers give another SINR: Twin.decide
    # holds the radio to the lookup order's, bit for bit
    in_arrival_order = [r for _sender, r in sorted((r.sender, r) for r in interferers)]
    assert twin.reference_sinr(sender_pos, 9, receiver, in_arrival_order) != (
        twin.reference_sinr(sender_pos, 9, receiver, interferers)
    )


def test_a_lookup_sees_every_note_before_it():
    # the overlap filter of one frame is reused across its receivers; a
    # note in between, or another sender over the same interval, is not
    # served from it
    twin = Twin()
    twin.note(1, Point(100.0, 100.0), 0.0, 0.01)
    twin.note(2, Point(300.0, 100.0), 0.0, 0.01)
    twin.decide(1, Point(100.0, 100.0), 5, Point(200.0, 150.0), 0.0, 0.01)
    twin.note(3, Point(200.0, 400.0), 0.005, 0.015)
    twin.decide(1, Point(100.0, 100.0), 5, Point(200.0, 150.0), 0.0, 0.01)
    twin.decide(2, Point(300.0, 100.0), 5, Point(200.0, 150.0), 0.0, 0.01)
    assert [[r.sender for r in interferers] for interferers, _answer in twin.decisions] == [
        [2],
        [2, 3],
        [1, 3],
    ]


def test_receiver_on_the_air_hears_nothing():
    twin = Twin()
    twin.note(1, Point(300.0, 300.0), 0.0, 0.01)
    twin.note(2, Point(350.0, 300.0), 0.001, 0.011)
    assert twin.decide(1, Point(300.0, 300.0), 2, Point(350.0, 300.0), 0.001, 0.011) == 0.0
    # a receiver that has moved beyond the interference radius of its own
    # frame: the lookup does not find that frame, so it is not held
    # half-duplex
    twin = Twin()
    twin.note(3, Point(900.0, 300.0), 0.0, 0.01)
    assert twin.decide(1, Point(300.0, 300.0), 3, Point(320.0, 300.0), 0.0, 0.01) == 1.0


def test_receivers_of_one_broadcast_share_its_interval():
    twin = Twin()
    senders = [
        Point(800.0, 600.0),  # cell (1, 1)
        Point(600.0, 450.0),  # cell (1, 1)
        Point(400.0, 300.0),  # cell (0, 0)
        Point(200.0, 650.0),  # cell (0, 1)
        Point(1000.0, 750.0),  # cell (2, 1)
    ]
    for sender, position in enumerate(senders, start=1):
        twin.note(sender, position, 0.001 * sender, 0.006 + 0.001 * sender)
    sender_pos = Point(500.0, 500.0)
    twin.note(0, sender_pos, 0.004, 0.009)
    for receiver in range(6, 16):
        position = Point(300.0 + 40.0 * receiver, 700.0 - 30.0 * receiver)
        twin.decide(0, sender_pos, receiver, position, 0.004, 0.009)
    interferers, answer = twin.decisions[0]
    assert ([record.sender for record in interferers], answer) == ([3, 4, 1, 2], 1.0)
    assert {answer for _interferers, answer in twin.decisions} == {0.0, 1.0}


def test_unicast_retries_noted_ahead_prune_the_ledger():
    # each retry is noted at its future start, so the prune drops frames
    # that are still on the air at the current instant
    twin = Twin()
    twin.note(1, Point(100.0, 100.0), 0.0, 0.004)
    twin.note(2, Point(600.0, 100.0), 0.001, 0.003)
    now, delay, airtime = 0.002, 0.0025, 0.001
    sender_pos, receiver_pos = Point(300.0, 100.0), Point(400.0, 120.0)
    twin.note(0, sender_pos, now, now + airtime)
    twin.decide(0, sender_pos, 5, receiver_pos, now, now + airtime)
    for retry in (1, 2):
        start = now + retry * delay
        twin.note(0, sender_pos, start, start + airtime)
        twin.decide(0, sender_pos, 5, receiver_pos, start, start + airtime)
    assert len(twin.radio._active) == 1
    # frame 1 is on the air until 0.004, yet the retry noted at 0.0045
    # pruned it: the ledger's known fault, kept as it is until a fix that
    # changes this assertion on purpose
    assert twin.decide(3, Point(150.0, 100.0), 6, Point(200.0, 100.0), now, now + airtime) == 1.0
    assert twin.decisions[-1][0] == []


def test_intervals_that_do_not_overlap():
    twin = Twin()
    twin.note(1, Point(250.0, 0.0), 1.0, 1.01)
    twin.decide(0, Point(0.0, 0.0), 2, Point(240.0, 0.0), 1.01, 1.02)  # touching
    twin.decide(0, Point(0.0, 0.0), 2, Point(240.0, 0.0), 0.5, 1.0)
    twin.decide(0, Point(0.0, 0.0), 2, Point(240.0, 0.0), 2.0, 2.01)
    twin.decide(0, Point(0.0, 0.0), 2, Point(240.0, 0.0), 1.005, 1.015)
    assert [answer for _interferers, answer in twin.decisions] == [1.0, 1.0, 1.0, 0.0]


def _coordinate(rng: random.Random) -> float:
    """Anywhere over four cells, or on or within 1e-9 of a cell edge."""
    if rng.random() < 0.2:
        return rng.randrange(4) * CELL + rng.choice((-1e-9, -1e-12, 0.0, 1e-12, 1e-9))
    return rng.uniform(-100.0, 1500.0)


def _gap(rng: random.Random) -> float:
    """Time to the next transmission: mostly within a frame's airtime."""
    roll = rng.random()
    if roll < 0.2:
        return 0.0
    if roll < 0.9:
        return rng.uniform(0.0, 0.002)
    return rng.uniform(0.05, 1.0)


def run_program(seed: int, nodes: int = 10, steps: int = 150) -> Counter:
    """Feed one drawn transmit sequence to a :class:`Twin`; count what it covered.

    The calls are the ones ``Network.transmit`` makes: a broadcast is
    noted once and decided at every other node over its interval; a
    unicast is noted and decided once per attempt, retry ``k`` over
    ``[now + k * delay, now + k * delay + airtime]``.  Nodes move
    between transmissions.
    """
    rng = random.Random(seed)
    twin = Twin()
    positions = [Point(_coordinate(rng), _coordinate(rng)) for _ in range(nodes)]
    covered: Counter = Counter()
    now = 0.0

    def note(sender: int, start: float, end: float) -> None:
        on_air = [r for r in twin.reference._active._records if r.start <= now <= r.end]
        twin.note(sender, positions[sender], start, end)
        kept = twin.reference._active._records
        if any(all(r is not k for k in kept) for r in on_air):
            covered["pruned while on the air"] += 1

    def decide(sender: int, receiver: int, start: float, end: float) -> None:
        answer = twin.decide(sender, positions[sender], receiver, positions[receiver], start, end)
        interferers = twin.decisions[-1][0]
        arrival = [r for r in twin.reference._active._records if any(r is i for i in interferers)]
        cells = {(int(r.position.x // CELL), int(r.position.y // CELL)) for r in interferers}
        if len(interferers) >= 3 and len(cells) >= 2 and arrival != interferers:
            covered["lookup order is not arrival order"] += 1
        if any(r.sender == receiver for r in interferers):
            covered["receiver on the air"] += 1
        ledger = twin.reference._active._records
        if any(r.sender != sender and not r.overlaps(start, end) for r in ledger):
            covered["a frame that does not overlap"] += 1
        covered[f"answer {answer}"] += 1

    for _ in range(steps):
        if rng.random() < 0.1:
            positions[rng.randrange(nodes)] = Point(_coordinate(rng), _coordinate(rng))
        now += _gap(rng)
        sender = rng.randrange(nodes)
        airtime = rng.uniform(5e-4, 4e-3)
        note(sender, now, now + airtime)
        if rng.random() < 0.5:
            for receiver in range(nodes):
                if receiver != sender:
                    decide(sender, receiver, now, now + airtime)
            continue
        receiver = rng.choice([n for n in range(nodes) if n != sender])
        delay = rng.uniform(5e-4, 5e-3)
        decide(sender, receiver, now, now + airtime)
        for retry in range(1, rng.randrange(1, 5)):
            start = now + retry * delay
            note(sender, start, start + airtime)
            decide(sender, receiver, start, start + airtime)
    return covered


def test_drawn_transmit_sequences():
    covered = sum((run_program(seed) for seed in range(8)), Counter())
    for case in (
        "lookup order is not arrival order",
        "receiver on the air",
        "pruned while on the air",
        "a frame that does not overlap",
        "answer 0.0",
        "answer 1.0",
    ):
        assert covered[case] > 0, (case, covered)
