"""Unit tests for packets, radio models and the MAC abstraction."""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.experiments.scenarios import ScenarioConfig
from repro.geo.geometry import Point, distance
from repro.registry import RADIOS
from repro.simulation.mac import IdealMac, SimpleCsmaMac, TxPlan
from repro.simulation.packet import Packet, PacketKind
from repro.simulation.radio import LogDistanceRadio, RadioModel, UnitDiskRadio
from tests.conftest import control_packet, data_packet, literal_in_range, make_static_network


class TestPacket:
    def test_unique_uids(self):
        a = data_packet("p", 1, 1, None, 100, 0.0)
        b = data_packet("p", 1, 1, None, 100, 0.0)
        assert a.uid != b.uid

    def test_copy_preserves_uid_and_isolates_headers(self):
        packet = data_packet("p", 1, 1, "x", 100, 0.0, headers={"stage": "a"})
        copy = packet.copy_for_forwarding()
        assert copy.uid == packet.uid
        copy.headers["stage"] = "b"
        assert packet.headers["stage"] == "a"

    def test_copy_carries_every_field(self):
        # every value differs from its field's default, so a copy that
        # skips a field (or falls back to the default) is caught
        packet = Packet(
            kind=PacketKind.CONTROL,
            protocol="p",
            msg_type="beacon",
            source=3,
            group=4,
            destination=5,
            payload=("x",),
            headers={"stage": "a", "visited": (3,)},
            size_bytes=77,
            created_at=1.5,
            uid=987654,
            hops=6,
            logical_hops=7,
        )
        copy = packet.copy_for_forwarding()
        for f in dataclasses.fields(Packet):
            assert getattr(copy, f.name) == getattr(packet, f.name), f.name
        assert copy.headers is not packet.headers

    def test_age(self):
        # a packet's age when it arrives is the delay the ledger records
        net = make_static_network({0: Point(0.0, 0.0), 1: Point(100.0, 0.0)})
        net.simulator.run_until(5.0)
        packet = data_packet("p", 0, 1, None, 100, now=net.simulator.now)
        net.register_data_packet(packet, intended=[1])
        net.simulator.run_until(8.5)
        net.note_delivery(packet, 1)
        assert net.simulator.now - packet.created_at == pytest.approx(3.5)
        assert net.deliveries[packet.uid].delays() == [pytest.approx(3.5)]

    def test_control_packet_kind(self):
        packet = control_packet("p", "beacon", 3, 40, 1.0)
        assert packet.kind is PacketKind.CONTROL
        assert packet.msg_type == "beacon"

    def test_data_packet_kind(self):
        packet = data_packet("p", 3, 9, ("payload",), 256, 1.0)
        assert packet.kind is PacketKind.DATA
        assert packet.group == 9
        assert packet.size_bytes == 256


class TestUnitDiskRadio:
    def test_in_range_boundary(self):
        radio = UnitDiskRadio(100.0)
        assert radio.in_range(Point(0, 0), Point(100.0, 0.0))
        assert not radio.in_range(Point(0, 0), Point(100.1, 0.0))

    def test_reception_probability_binary(self):
        radio = UnitDiskRadio(100.0)
        assert radio.reception_probability(Point(0, 0), Point(50, 0)) == 1.0
        assert radio.reception_probability(Point(0, 0), Point(150, 0)) == 0.0

    def test_nominal_range(self):
        assert UnitDiskRadio(250.0).nominal_range == 250.0

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            UnitDiskRadio(0.0)

    def test_hears_whole_disc_only_where_stated(self):
        assert UnitDiskRadio.hears_whole_disc
        for name in RADIOS.names():
            radio = RADIOS.get(name)(None)
            assert radio.hears_whole_disc == isinstance(radio, UnitDiskRadio), name

        class Renamed(UnitDiskRadio):
            pass

        class Fading(UnitDiskRadio):
            def reception_probability_during(self, *args):
                return 0.5

        class Restated(Fading):
            hears_whole_disc = True

        # a subclass that redefines reception without restating the flag
        # makes no promise about its disc
        assert Renamed.hears_whole_disc
        assert not Fading.hears_whole_disc
        assert Restated.hears_whole_disc

    def test_a_radio_that_notes_frames_is_sent_its_notes(self):
        # the transmit path sends a whole-disc radio no notes, so a
        # subclass that redefines note_transmission must not inherit the flag
        class Noting(UnitDiskRadio):
            def __init__(self):
                super().__init__(250.0)
                self.notes = []

            def note_transmission(self, sender, position, start, end):
                self.notes.append((sender, start))

        assert not Noting.hears_whole_disc
        network = make_static_network({0: Point(100.0, 100.0), 1: Point(200.0, 100.0)})
        radio = network.config.radio = Noting()
        network.transmit(0, control_packet("p", "ctl", 0, 100, 0.0), None)
        network.transmit(0, control_packet("p", "ctl", 0, 100, 0.0), 1)
        assert radio.notes == [(0, 0.0), (0, 0.0)]


def reference_unit_disk_probability(radio, a, b):
    """``reception_probability`` -> ``in_range`` -> ``distance``, as the
    transmit seam reached it before the unit disk answered it directly."""
    return 1.0 if distance(a, b) <= radio.range_m + 1e-9 else 0.0


class TestUnitDiskTransmitSeam:
    @pytest.mark.parametrize("range_m", [100.0, 250.0, 333.3])
    def test_matches_reception_probability_at_the_range_edge(self, range_m):
        radio = UnitDiskRadio(range_m)
        edge = range_m + 1e-9
        distances = (
            range_m,
            range_m - 1e-9,
            range_m + 1e-9,
            math.nextafter(range_m, 0.0),
            math.nextafter(range_m, math.inf),
            math.nextafter(edge, 0.0),
            math.nextafter(edge, math.inf),
        )
        origin = Point(0.0, 0.0)
        seen = set()
        for d in distances:
            for far in (Point(d, 0.0), Point(0.0, -d), Point(-d, 0.0)):
                p = radio.reception_probability_during(1, origin, 2, far, 0.0, 0.01)
                assert p == radio.reception_probability(origin, far)
                assert p == reference_unit_disk_probability(radio, origin, far)
                seen.add(p)
        assert seen == {0.0, 1.0}

    @given(
        x=st.floats(min_value=-2000.0, max_value=2000.0),
        y=st.floats(min_value=-2000.0, max_value=2000.0),
        angle=st.floats(min_value=0.0, max_value=2 * math.pi),
        offset=st.floats(min_value=-1e-6, max_value=1e-6),
    )
    @example(x=0.0, y=0.0, angle=0.0, offset=1e-9)
    @example(x=0.1, y=0.7, angle=1.0, offset=0.0)
    def test_matches_reception_probability_near_the_edge(self, x, y, angle, offset):
        radio = UnitDiskRadio(250.0)
        a = Point(x, y)
        b = Point(x + (250.0 + offset) * math.cos(angle), y + (250.0 + offset) * math.sin(angle))
        for sender, receiver in ((a, b), (b, a)):
            p = radio.reception_probability_during(0, sender, 1, receiver, 5.0, 5.1)
            assert p == radio.reception_probability(sender, receiver)
            assert p == reference_unit_disk_probability(radio, sender, receiver)


class TestRadioInRangeContract:
    """Every registered radio answers ``in_range`` with ``RadioModel``'s one
    disc test, the arithmetic ``Network._neighbor_table`` inlines."""

    @pytest.mark.parametrize("name", RADIOS.names())
    def test_no_registered_radio_overrides_in_range(self, name):
        radio = RADIOS.get(name)(None)
        assert type(radio).in_range is RadioModel.in_range

    @pytest.mark.parametrize("name", RADIOS.names())
    @pytest.mark.parametrize("radio_range", [100.0, 250.0, 333.3])
    def test_matches_the_literal_disc_at_its_edge(self, name, radio_range):
        radio = RADIOS.get(name)(ScenarioConfig(radio=name, radio_range=radio_range))
        literal = literal_in_range(radio)
        r = radio.nominal_range
        edge = r + 1e-9
        distances = (
            r,
            r - 1e-9,
            r + 1e-9,
            math.nextafter(r, 0.0),
            math.nextafter(r, math.inf),
            math.nextafter(edge, 0.0),
            math.nextafter(edge, math.inf),
        )
        seen = set()
        for d in distances:
            for a, b in (
                (Point(0.0, 0.0), Point(d, 0.0)),
                (Point(0.0, 0.0), Point(0.0, -d)),
                (Point(d + 17.25, 3.5), Point(17.25, 3.5)),
            ):
                assert radio.in_range(a, b) == literal(a, b), (d, a, b)
                seen.add(literal(a, b))
        assert seen == {True, False}


class TestLogDistanceRadio:
    def test_reliable_zone(self):
        radio = LogDistanceRadio(100.0, reliable_fraction=0.8, max_fraction=1.2)
        assert radio.reception_probability(Point(0, 0), Point(70, 0)) == 1.0

    def test_grey_zone_monotone_decreasing(self):
        radio = LogDistanceRadio(100.0)
        p1 = radio.reception_probability(Point(0, 0), Point(90, 0))
        p2 = radio.reception_probability(Point(0, 0), Point(110, 0))
        assert 0.0 <= p2 <= p1 <= 1.0

    def test_beyond_cutoff(self):
        radio = LogDistanceRadio(100.0, max_fraction=1.2)
        assert radio.reception_probability(Point(0, 0), Point(125, 0)) == 0.0
        assert not radio.in_range(Point(0, 0), Point(125, 0))

    def test_nominal_range_includes_grey_zone(self):
        radio = LogDistanceRadio(100.0, max_fraction=1.2)
        assert radio.nominal_range == pytest.approx(120.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LogDistanceRadio(-1.0)
        with pytest.raises(ValueError):
            LogDistanceRadio(100.0, exponent=0.0)
        with pytest.raises(ValueError):
            LogDistanceRadio(100.0, reliable_fraction=1.5)
        with pytest.raises(ValueError):
            LogDistanceRadio(100.0, max_fraction=0.5)


class TestSimpleCsmaMac:
    def test_delay_grows_with_size(self):
        mac = SimpleCsmaMac()
        assert mac.transmission_delay(2000, 0) > mac.transmission_delay(100, 0)

    def test_delay_grows_with_contention(self):
        mac = SimpleCsmaMac()
        assert mac.transmission_delay(1000, 20) > mac.transmission_delay(1000, 0)

    def test_base_latency_floor(self):
        mac = SimpleCsmaMac(base_latency=0.005)
        assert mac.transmission_delay(0, 0) == pytest.approx(0.005)

    def test_loss_probability_capped(self):
        mac = SimpleCsmaMac(
            collision_probability_per_contender=0.1, max_collision_probability=0.3
        )
        assert mac.loss_probability(100) == pytest.approx(0.3)
        assert mac.loss_probability(1) == pytest.approx(0.1)
        assert mac.loss_probability(0) == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SimpleCsmaMac(bandwidth_bps=0.0)
        with pytest.raises(ValueError):
            SimpleCsmaMac(base_latency=-0.1)
        with pytest.raises(ValueError):
            SimpleCsmaMac(collision_probability_per_contender=2.0)
        with pytest.raises(ValueError):
            SimpleCsmaMac(max_collision_probability=1.5)

    def test_negative_arguments_rejected(self):
        mac = SimpleCsmaMac()
        with pytest.raises(ValueError):
            mac.transmission_delay(-1, 0)
        with pytest.raises(ValueError):
            mac.transmission_delay(10, -1)
        with pytest.raises(ValueError):
            mac.loss_probability(-1)


class TestIdealMac:
    def test_constant_delay_no_loss(self):
        mac = IdealMac(delay=0.002)
        assert mac.transmission_delay(10_000, 50) == 0.002
        assert mac.loss_probability(50) == 0.0

    def test_plan_rejects_field_assignment(self):
        plan = IdealMac().plan_transmission(0, 0.0, 100, 2, random.Random(1))
        with pytest.raises(AttributeError):
            plan.delay = 1.0
        with pytest.raises(AttributeError):
            plan.proceed = False


#: the MACs that keep the default, memoised plan
MEMOISED_MACS = {
    "csma": SimpleCsmaMac,
    "csma-lossy": lambda: SimpleCsmaMac(
        bandwidth_bps=1_000_000.0,
        base_latency=0.0005,
        contention_factor=0.3,
        collision_probability_per_contender=0.03,
        max_collision_probability=0.9,
    ),
    "ideal": IdealMac,
}

_PLAN_KEY = st.tuples(
    st.integers(min_value=0, max_value=10_000),
    st.one_of(st.integers(min_value=0, max_value=64), st.sampled_from([10**6, 10**9])),
)


@pytest.mark.parametrize("make_mac", list(MEMOISED_MACS.values()), ids=list(MEMOISED_MACS))
class TestDefaultPlanMemo:
    """The default plan is built once per (size, contenders) and never draws."""

    @settings(max_examples=150, deadline=None)
    @given(keys=st.lists(_PLAN_KEY, min_size=1, max_size=12))
    @example(keys=[(0, 0), (10_000, 64), (1500, 10**6), (1500, 10**9)])
    def test_plan_is_the_classic_pair_and_draws_nothing(self, make_mac, keys):
        mac = make_mac()
        rng = random.Random(11)
        state = rng.getstate()
        for size, contenders in keys + keys:
            delay = mac.transmission_delay(size, contenders)
            expected = TxPlan(True, delay, mac.loss_probability(contenders), delay)
            first = mac.plan_transmission(0, 0.0, size, contenders, rng)
            second = mac.plan_transmission(5, 12.5, size, contenders, rng)
            assert first == expected
            assert second is first
            assert rng.getstate() == state
        assert len(mac._plans) == len(set(keys))

    def test_fields_cannot_be_assigned(self, make_mac):
        mac = make_mac()
        for field in dataclasses.fields(mac):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(mac, field.name, getattr(mac, field.name))

    def test_memo_is_per_instance_and_kept_out_of_equality(self, make_mac):
        mac, twin = make_mac(), make_mac()
        mac.plan_transmission(0, 0.0, 100, 3, random.Random(1))
        assert (100, 3) in mac._plans and twin._plans == {}
        assert mac == twin and hash(mac) == hash(twin)
        assert "_plans" not in repr(mac)


class TestDefaultPlanRejectsBadKeys:
    @pytest.mark.parametrize("make_mac", [MEMOISED_MACS["csma"], MEMOISED_MACS["csma-lossy"]])
    def test_negative_size_or_contenders_raise_and_store_nothing(self, make_mac):
        mac = make_mac()
        for size, contenders in ((-1, 0), (-1, 5), (100, -1)):
            with pytest.raises(ValueError):
                mac.plan_transmission(0, 0.0, size, contenders, random.Random(1))
        assert mac._plans == {}


class TestMacLossProbabilityContract:
    """Every registered MAC honours the [0, 1] loss-probability contract."""

    ADVERSARIAL_CONTENDERS = (0, 1, 7, 10**6, 10**9)

    def test_every_registered_mac_in_unit_interval(self):
        from repro.registry import MACS

        for name in MACS.names():
            mac = MACS.get(name)(None)
            for contenders in self.ADVERSARIAL_CONTENDERS:
                p = mac.loss_probability(contenders)
                assert 0.0 <= p <= 1.0, (name, contenders, p)

    def test_simple_csma_clamped_for_adversarial_configs(self):
        # per-contender probability 1.0 with a 10**9 multiplier would hit
        # 1e9 without the clamp; the configured cap already bounds it, and
        # the explicit clamp keeps the contract even if the cap moves
        mac = SimpleCsmaMac(
            collision_probability_per_contender=1.0, max_collision_probability=1.0
        )
        assert mac.loss_probability(10**9) == 1.0
        assert mac.loss_probability(0) == 0.0


class TestSinrRadio:
    def _radio(self, **overrides):
        from repro.simulation.phy import SinrRadio, SinrRadioConfig

        return SinrRadio(SinrRadioConfig(**overrides), range_hint=250.0)

    def test_calibration_matches_unit_disk_range(self):
        radio = self._radio()
        assert radio.nominal_range == pytest.approx(250.0)
        assert radio.rssi_at(250.0) == pytest.approx(radio.config.sensitivity_dbm)
        assert radio.in_range(Point(0, 0), Point(250.0, 0))
        assert not radio.in_range(Point(0, 0), Point(251.0, 0))

    def test_rssi_monotone_decreasing(self):
        radio = self._radio()
        samples = [radio.rssi_at(d) for d in (1.0, 10.0, 50.0, 100.0, 250.0)]
        assert samples == sorted(samples, reverse=True)

    def test_explicit_reference_loss_derives_range(self):
        # margin = 16 - 40 - (-90) = 66 dB; range = d0 * 10^(66/30)
        radio = self._radio(reference_loss_db=40.0)
        assert radio.nominal_range == pytest.approx(10.0 ** (66.0 / 30.0))

    def test_unclosable_link_budget_rejected(self):
        with pytest.raises(ValueError):
            self._radio(reference_loss_db=200.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            self._radio(path_loss_exponent=0.0)
        with pytest.raises(ValueError):
            self._radio(reference_distance=0.0)
        with pytest.raises(ValueError):
            self._radio(interference_range_factor=0.5)
        with pytest.raises(ValueError):
            self._radio(noise_floor_dbm=20.0)
        from repro.simulation.phy import SinrRadio

        with pytest.raises(ValueError):
            SinrRadio(range_hint=0.0)

    def test_reception_without_interference(self):
        radio = self._radio()
        a, near, far = Point(0, 0), Point(100, 0), Point(400, 0)
        assert radio.reception_probability(a, near) == 1.0
        assert radio.reception_probability(a, far) == 0.0

    def test_strong_interferer_jams_weak_frame(self):
        radio = self._radio()
        sender, receiver = Point(0, 0), Point(240.0, 0)
        # no interference: the calibrated edge-of-range frame decodes
        assert (
            radio.reception_probability_during(0, sender, 2, receiver, 0.0, 0.01)
            == 1.0
        )
        # a concurrent sender right next to the receiver buries it
        radio.note_transmission(1, Point(250.0, 0), 0.0, 0.01)
        assert (
            radio.reception_probability_during(0, sender, 2, receiver, 0.0, 0.01)
            == 0.0
        )

    def test_capture_survives_distant_interferer(self):
        radio = self._radio()
        sender, receiver = Point(0, 0), Point(10.0, 0)
        radio.note_transmission(1, Point(400.0, 0), 0.0, 0.01)
        # the wanted frame is 24 dB/decade stronger; SINR clears capture
        assert (
            radio.reception_probability_during(0, sender, 2, receiver, 0.0, 0.01)
            == 1.0
        )

    def test_half_duplex_receiver(self):
        radio = self._radio()
        radio.note_transmission(2, Point(50.0, 0), 0.0, 0.01)
        # node 2 is itself on the air, so it cannot decode anything
        assert (
            radio.reception_probability_during(
                0, Point(0, 0), 2, Point(50.0, 0), 0.005, 0.015
            )
            == 0.0
        )

    def test_non_overlapping_frames_do_not_interfere(self):
        radio = self._radio()
        sender, receiver = Point(0, 0), Point(240.0, 0)
        radio.note_transmission(1, Point(250.0, 0), 1.0, 1.01)
        assert (
            radio.reception_probability_during(0, sender, 2, receiver, 2.0, 2.01)
            == 1.0
        )


class TestInterferenceMap:
    def _map(self):
        from repro.simulation.phy import InterferenceMap

        return InterferenceMap(cell_size=450.0)

    def _record(self, sender, x, start, end):
        from repro.simulation.phy import TransmissionRecord

        return TransmissionRecord(sender, Point(x, 0.0), start, end)

    def test_expired_records_pruned(self):
        imap = self._map()
        imap.note(self._record(1, 0.0, 0.0, 0.5), now=0.0)
        imap.note(self._record(2, 0.0, 0.4, 0.9), now=0.4)
        assert len(imap) == 2  # record 1 still on the air at 0.4
        imap.note(self._record(3, 0.0, 2.0, 2.5), now=2.0)
        assert len(imap) == 1  # records 1 and 2 expired before 2.0

    def test_spatial_and_temporal_filtering(self):
        imap = self._map()
        imap.note(self._record(1, 100.0, 0.0, 1.0), now=0.0)
        imap.note(self._record(2, 5000.0, 0.0, 1.0), now=0.0)  # far away
        imap.note(self._record(3, 100.0, 5.0, 6.0), now=0.0)  # later interval
        hits = imap.concurrent(Point(0, 0), 0.2, 0.8, radius=450.0)
        assert [(r.sender, d) for r, d in hits] == [(1, 100.0)]

    def test_exclude_sender(self):
        imap = self._map()
        imap.note(self._record(1, 100.0, 0.0, 1.0), now=0.0)
        assert imap.concurrent(Point(0, 0), 0.0, 1.0, 450.0, exclude_sender=1) == []

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            self._map().note(self._record(1, 0.0, 1.0, 1.0), now=0.0)

    def test_rejects_nonpositive_cell(self):
        from repro.simulation.phy import InterferenceMap

        with pytest.raises(ValueError):
            InterferenceMap(cell_size=0.0)


class TestCsmaCaMac:
    def _mac(self, **overrides):
        from repro.simulation.phy import CsmaCaMac, CsmaCaMacConfig

        return CsmaCaMac(CsmaCaMacConfig(**overrides))

    def test_airtime_formula(self):
        mac = self._mac(bitrate_bps=1_000_000.0, phy_overhead_s=0.0001)
        assert mac.airtime(1000) == pytest.approx(0.0001 + 8000 / 1e6)

    def test_contention_window_doubles_then_caps(self):
        mac = self._mac(cw_min=16, max_backoff_stage=3)
        assert mac.contention_window(0) == 16
        assert mac.contention_window(1) == 16
        assert mac.contention_window(2) == 32
        assert mac.contention_window(4) == 64
        assert mac.contention_window(8) == 128
        assert mac.contention_window(10**6) == 128  # capped at stage 3

    def test_plan_draws_backoff_from_rng(self):
        import random as random_module

        mac = self._mac()
        a = mac.plan_transmission(0, 0.0, 512, 4, random_module.Random(1))
        b = mac.plan_transmission(0, 0.0, 512, 4, random_module.Random(1))
        assert a == b  # same seed, same plan
        assert a.proceed and a.airtime > 0

    def test_plan_is_not_memoised(self):
        # every plan draws its backoff, so two plans for one key advance the rng
        mac = self._mac()
        rng = random.Random(4)
        states = [rng.getstate()]
        for _ in range(2):
            assert mac.plan_transmission(0, 0.0, 512, 8, rng).proceed
            states.append(rng.getstate())
        assert states[0] != states[1] != states[2]
        assert not hasattr(mac, "_plans")

    def test_duty_cycle_denial_and_ledger(self):
        mac = self._mac(duty_cycle=0.01, duty_cycle_window=1.0, bitrate_bps=1e6)
        import random as random_module

        rng = random_module.Random(3)
        # one 1000-byte frame is ~8 ms of air: within the 10 ms budget
        first = mac.plan_transmission(7, 0.0, 1000, 0, rng)
        assert first.proceed
        second = mac.plan_transmission(7, 0.001, 1000, 0, rng)
        assert not second.proceed
        assert second.loss_probability == 1.0
        assert mac.duty_cycle_denials == 1
        assert list(mac._usage[7]) == [(0.0, first.airtime)]   # the denied frame is not charged
        # the window slides: a second later the budget is free again
        third = mac.plan_transmission(7, 1.5, 1000, 0, rng)
        assert third.proceed

    def test_duty_cycle_isolated_per_sender(self):
        mac = self._mac(duty_cycle=0.01, duty_cycle_window=1.0, bitrate_bps=1e6)
        import random as random_module

        rng = random_module.Random(3)
        assert mac.plan_transmission(1, 0.0, 1000, 0, rng).proceed
        assert mac.plan_transmission(2, 0.0, 1000, 0, rng).proceed

    def test_invalid_parameters(self):
        for bad in (
            dict(bitrate_bps=0.0),
            dict(base_latency=-1.0),
            dict(slot_time=-1.0),
            dict(cw_min=0),
            dict(max_backoff_stage=-1),
            dict(duty_cycle=0.0),
            dict(duty_cycle=1.5),
            dict(duty_cycle_window=0.0),
        ):
            with pytest.raises(ValueError):
                self._mac(**bad)

    def test_negative_size_or_contenders_rejected(self):
        mac = self._mac()
        with pytest.raises(ValueError):
            mac.airtime(-1)
        with pytest.raises(ValueError):
            mac.contention_window(-1)
        with pytest.raises(ValueError):
            mac.transmission_delay(100, -1)


class TestNetworkDutyCycleAccounting:
    def test_denied_frames_surface_in_network_stats(self):
        from repro.geo.area import Area
        from repro.mobility.static import StaticMobility
        from repro.simulation.network import Network, NetworkConfig
        from repro.simulation.node import MobileNode
        from repro.simulation.phy import CsmaCaMac, CsmaCaMacConfig
        from repro.simulation.radio import UnitDiskRadio

        area = Area(500.0, 500.0)
        positions = {0: Point(100.0, 100.0), 1: Point(200.0, 100.0)}
        mobility = StaticMobility(area, [0, 1], positions=positions, seed=1)
        mac = CsmaCaMac(
            CsmaCaMacConfig(duty_cycle=0.01, duty_cycle_window=1.0, bitrate_bps=1e6)
        )
        network = Network(
            NetworkConfig(area=area, radio=UnitDiskRadio(250.0), mac=mac, seed=1),
            mobility,
        )
        for node_id in (0, 1):
            network.add_node(MobileNode(node_id))
        network.start()
        for _ in range(3):
            network.transmit(0, data_packet("p", 0, 1, None, 1000, 0.0))
        assert network.stats.drops_duty_cycle == 2
        assert network.stats.airtime_seconds == pytest.approx(mac.airtime(1000))
