"""Unit tests for the discrete-event engine."""

import random

import pytest

from repro.simulation.engine import PeriodicTimer, Simulator


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(3.0, lambda: order.append("c"))
        sim.schedule(1.0, lambda: order.append("a"))
        sim.schedule(2.0, lambda: order.append("b"))
        sim.run_until(10.0)
        assert order == ["a", "b", "c"]
        assert sim.now == 10.0

    def test_simultaneous_events_fifo_within_priority(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append(1))
        sim.schedule(1.0, lambda: order.append(2))
        sim.schedule(1.0, lambda: order.append(0), priority=-1)
        sim.run_until(2.0)
        assert order == [0, 1, 2]

    def test_callback_gets_its_arguments(self):
        sim = Simulator()
        calls = []
        sim.schedule(1.0, lambda *args: calls.append(args), args=(1, "a"))
        sim.schedule(2.0, lambda *args: calls.append(args))
        sim.run_until(3.0)
        assert calls == [(1, "a"), ()]

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-1.0, lambda: None)

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.run_until(10.0)
        assert fired == [5.0]
        with pytest.raises(ValueError):
            sim.schedule_at(3.0, lambda: None)

    def test_run_until_does_not_execute_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append("later"))
        sim.run_until(2.0)
        assert fired == []
        sim.run_until(6.0)
        assert fired == ["later"]

    def test_run_until_past_time_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(ValueError):
            sim.run_until(2.0)

    def test_events_scheduled_during_execution(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run_until(10.0)
        assert fired == [1.0, 2.0, 3.0]

    def test_stop_during_run(self):
        # a run stops at its end time; the next run resumes the remaining events
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        sim.run_until(1.5)
        assert fired == [1]
        sim.run_until(5.0)
        assert fired == [1, 2]

    def test_processed_and_pending_counters(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        assert len(sim._heap) == 2
        sim.run_until(1.5)
        assert sim.processed_events == 1
        assert len(sim._heap) == 1

    def test_drain_runs_everything(self):
        sim = Simulator()
        fired = []
        for t in (5.0, 1.0, 3.0):
            sim.schedule(t, lambda t=t: fired.append(t))
        sim.run_until(float("inf"))
        assert fired == [1.0, 3.0, 5.0]
        assert sim.processed_events == 3

    def test_run_convenience(self):
        sim = Simulator()
        sim.run(5.0)
        assert sim.now == 5.0
        sim.run(2.5)
        assert sim.now == 7.5


class TestPeriodicTimer:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 2.0, lambda: ticks.append(sim.now))
        sim.run_until(9.0)
        assert ticks == [2.0, 4.0, 6.0, 8.0]

    def test_initial_delay(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 5.0, lambda: ticks.append(sim.now), initial_delay=1.0)
        sim.run_until(12.0)
        assert ticks == [1.0, 6.0, 11.0]

    def test_stop(self):
        sim = Simulator()
        ticks = []
        timer = PeriodicTimer(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run_until(3.5)
        timer.stop()
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0, 3.0]     # no tick after stop()
        assert sim._heap == []              # the pending tick ran as a no-op

    def test_jitter_requires_rng(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            PeriodicTimer(sim, 1.0, lambda: None, jitter=0.5)

    def test_jitter_desynchronises(self):
        sim = Simulator()
        ticks = []
        PeriodicTimer(sim, 2.0, lambda: ticks.append(sim.now), jitter=0.5, rng=random.Random(1))
        sim.run_until(10.0)
        assert len(ticks) >= 3
        assert all(t >= 2.0 for t in ticks[:1])
        # at least one tick is off the exact multiple of the period
        assert any(abs(t - round(t / 2.0) * 2.0) > 1e-9 for t in ticks)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), 1.0, lambda: None, jitter=-0.5, rng=random.Random(1))

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            PeriodicTimer(Simulator(), 0.0, lambda: None)
