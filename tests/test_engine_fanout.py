"""The engine's fan-out entry against one entry per call.

``Simulator.schedule(..., each=[...])`` makes several same-time calls from
one heap entry.  The contract is that nothing observable changes: the
calls interleave with every other event, and ``now`` and
``processed_events`` read the same inside each call.
:class:`ReferenceSimulator` is the engine as it was before fan-outs
existed, kept verbatim with its :class:`Event` handle, and every schedule
here is run on both: a fan-out on the reference becomes one ``schedule``
per call.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import weakref
from typing import Callable, List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import Simulator


class Event:
    """Handle of one scheduled event, returned so the caller can cancel it.

    Simultaneous events run in a deterministic order (lower priority value
    first, then FIFO); that order is kept by the heap entry, not here.
    """

    __slots__ = ("time", "callback", "cancelled")

    def __init__(self, time: float, callback: Callable[[], None]) -> None:
        self.time = time
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing (it stays in the heap but is skipped)."""
        self.cancelled = True


class ReferenceSimulator:
    """The event kernel with one heap entry per call (no fan-out)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Event]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._running = False
        self._processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    def schedule(
        self, delay: float, callback: Callable[[], None], priority: int = 0
    ) -> Event:
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        time = self._now + delay
        event = Event(time, callback)
        heapq.heappush(self._heap, (time, priority, next(self._sequence), event))
        return event

    def run_until(self, end_time: float) -> None:
        if end_time < self._now:
            raise ValueError(f"end_time {end_time} is in the past (now={self._now})")
        heap = self._heap
        self._running = True
        while heap and self._running:
            if heap[0][0] > end_time:
                break
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                continue
            self._now = event.time
            event.callback()
            self._processed += 1
        self._now = max(self._now, end_time)
        self._running = False


#: calls after which callbacks stop acting, so zero-delay chains end
_CALL_BUDGET = 200

_PRIORITY = st.integers(min_value=-10, max_value=1)
_DELAY = st.sampled_from([0.0, 0.0, 0.5, 1.0])
_ACTION = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("event"), _DELAY, _PRIORITY),
    st.tuples(st.just("fan_out"), _DELAY, _PRIORITY, st.integers(min_value=1, max_value=8)),
)
_INITIAL = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
        _PRIORITY,
        st.one_of(st.none(), st.integers(min_value=1, max_value=8)),
    ),
    min_size=1,
    max_size=12,
)
_STEPS = st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]), max_size=8)
#: past every event a script can schedule: each call delays by at most 1 s
#: and only the first _CALL_BUDGET calls schedule anything
_FLUSH = 1000.0


class Harness:
    """Drives one engine through a script and logs what every call saw.

    The ``n``-th call performs ``script[n % len(script)]``, so two engines
    that make the same calls in the same order act identically.
    """

    def __init__(self, sim, fan_out: bool, script) -> None:
        self.sim = sim
        self.fan_out = fan_out
        self.script = script
        self.log: List[tuple] = []
        self.calls = 0
        self.labels = itertools.count()

    def call(self, label: int, index: Optional[int]) -> None:
        self.log.append((label, index, self.sim.now, self.sim.processed_events))
        action = self.script[self.calls % len(self.script)]
        self.calls += 1
        if self.calls > _CALL_BUDGET:
            return
        kind = action[0]
        if kind == "event":
            self.schedule(action[1], action[2], None)
        elif kind == "fan_out":
            self.schedule(action[1], action[2], action[3])

    def schedule(self, delay: float, priority: int, calls: Optional[int]) -> None:
        label = next(self.labels)
        sim = self.sim
        if calls is None:
            sim.schedule(delay, lambda: self.call(label, None), priority)
        elif self.fan_out:
            each = [(label, i) for i in range(calls)]
            sim.schedule(delay, self.call, priority, each=each)
        else:
            for i in range(calls):
                sim.schedule(delay, lambda i=i: self.call(label, i), priority)

    def play(self, initial, steps) -> List[tuple]:
        """Schedule ``initial``, run ``steps``, then flush; returns the outcomes."""
        for delay, priority, calls in initial:
            self.schedule(delay, priority, calls)
        outcomes = []
        for step in steps + [_FLUSH]:
            self.sim.run_until(self.sim.now + step)
            outcomes.append((self.sim.now, self.sim.processed_events))
        return outcomes


def play_both(initial, script, steps):
    fanned = Harness(Simulator(), True, script)
    reference = Harness(ReferenceSimulator(), False, script)
    return (
        (fanned.play(initial, steps), fanned.log),
        (reference.play(initial, steps), reference.log),
    )


class TestFanOutMatchesOneEntryPerCall:
    @settings(max_examples=300, deadline=None)
    @given(
        initial=_INITIAL,
        script=st.lists(_ACTION, min_size=1, max_size=12),
        steps=_STEPS,
    )
    def test_random_schedules(self, initial, script, steps):
        (outcomes, log), (ref_outcomes, ref_log) = play_both(initial, script, steps)
        assert log == ref_log
        assert outcomes == ref_outcomes

    def test_negative_priority_event_queued_mid_fan_out_runs_before_the_rest(self):
        sim = Simulator()
        order = []

        def deliver(receiver):
            order.append(receiver)
            if receiver == 1:
                sim.schedule(0.0, lambda: order.append("tick"), priority=-10)
                sim.schedule(0.0, lambda: order.append("later"))

        sim.schedule(1.0, deliver, each=[(0,), (1,), (2,), (3,)])
        sim.run_until(2.0)
        assert order == [0, 1, "tick", 2, 3, "later"]
        assert sim.processed_events == 6

    def test_stop_mid_fan_out_resumes_with_the_next_call(self):
        # an event sorting before the rest of a fan-out interrupts it; the
        # fan-out re-queues itself as one entry and resumes with the next call
        sim = Simulator()
        order = []
        entries = []

        def interrupt():
            order.append(("tick", sim.processed_events))
            entries.append(len(sim._heap))

        def deliver(receiver):
            order.append((receiver, sim.processed_events))
            if receiver == 1:
                sim.schedule(0.0, interrupt, priority=-1)

        sim.schedule(1.0, deliver, each=[(0,), (1,), (2,)])
        sim.run_until(2.0)
        assert order == [(0, 0), (1, 1), ("tick", 2), (2, 3)]
        assert entries == [1]   # the fan-out's last call: one entry
        assert sim.processed_events == 4

    def test_drain_counts_calls(self):
        # one entry, but processed_events counts each of its calls
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, each=[(0,), (1,), (2,)])
        assert len(sim._heap) == 1
        sim.run_until(0.5)
        assert order == [] and sim.processed_events == 0
        sim.run_until(1.0)
        assert order == [0, 1, 2]
        assert sim.processed_events == 3

    def test_an_empty_fan_out_is_rejected(self):
        with pytest.raises(ValueError):
            Simulator().schedule(1.0, print, each=[])

    def test_a_fan_out_takes_its_arguments_from_each(self):
        with pytest.raises(ValueError):
            Simulator().schedule(1.0, print, each=[(1,)], args=(2,))


class Payload:
    """A weakref-able stand-in for a packet copy."""


class TestFanOutNeedsNoCycleCollector:
    """A fan-out is freed by reference counting alone: no fan-out refers
    to itself or to its simulator."""

    def _run_with_gc_disabled(self, body) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            body()
        finally:
            if was_enabled:
                gc.enable()

    def test_spent_fan_out_frees_its_items(self):
        def body():
            sim = Simulator()
            payloads = [Payload() for _ in range(5)]
            refs = [weakref.ref(p) for p in payloads]
            received = []
            sim.schedule(1.0, lambda p: received.append(1), each=[(p,) for p in payloads])
            del payloads
            sim.run_until(2.0)
            assert received == [1] * 5
            assert [r() for r in refs] == [None] * 5

        self._run_with_gc_disabled(body)

    def test_resumed_fan_out_frees_its_items(self):
        def body():
            sim = Simulator()
            resumed = [Payload() for _ in range(3)]
            refs = [weakref.ref(p) for p in resumed]
            calls = []

            def deliver(payload):
                calls.append(1)
                if len(calls) == 1:
                    # sorts before the rest of the fan-out, which re-queues itself
                    sim.schedule(0.0, lambda: calls.append(0), priority=-10)

            sim.schedule(1.0, deliver, each=[(p,) for p in resumed])
            del resumed[:]
            sim.run_until(2.0)
            assert calls == [1, 0, 1, 1]
            assert [r() for r in refs] == [None] * 3

        self._run_with_gc_disabled(body)

    def test_unfired_fan_out_frees_its_items_with_its_simulator(self):
        def body():
            sim = Simulator()
            waiting = [Payload() for _ in range(4)]
            refs = [weakref.ref(p) for p in waiting]
            sim.schedule(1.0, lambda p: None, each=[(p,) for p in waiting])
            del waiting[:]
            sim.run_until(0.5)
            assert all(r() is not None for r in refs)   # still queued
            sim_ref = weakref.ref(sim)
            del sim
            assert sim_ref() is None
            assert [r() for r in refs] == [None] * 4

        self._run_with_gc_disabled(body)
