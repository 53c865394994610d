"""Discrete-event simulation engine.

A minimal but complete event-driven kernel: the heap holds
``(time, priority, sequence, callback, args)`` tuples and the simulator
pops them in that order, advances a virtual clock and calls
``callback(*args)``.  The sequence number is unique, so tuple comparison
never reaches the callback.  One entry may fan out into several
same-time calls of one callback (a broadcast's receptions); it reserves
one sequence number per call and runs them in exactly the order separate
entries would.  A scheduled call cannot be withdrawn: whatever should
not act any more checks its own state when it runs, as a stopped
:class:`PeriodicTimer` does.  Periodic timers are provided as a
convenience for protocol beaconing and mobility epochs.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from typing import Any, Callable, List, Optional, Tuple


class _FanOut:
    """The calls ``target(*args)`` for each ``args`` in ``items``, from one heap entry.

    Call ``i`` owns sequence number ``sequence + i``.  Before each call
    after the first, :meth:`fire` pushes itself back under that number if
    the heap top sorts before it (a zero-delay, lower-priority event
    queued by an earlier call), so the calls interleave with other events
    exactly as separate entries would.  The heap entry holds the bound
    :meth:`fire` and the fan-out holds its simulator only weakly, so
    nothing refers back to the entry: a fan-out and its items are freed
    by reference counting alone, once spent or once its simulator is.
    """

    __slots__ = ("_simulator", "_time", "_priority", "_sequence", "_target", "_items", "_next")

    def __init__(
        self,
        simulator: "Simulator",
        time: float,
        priority: int,
        sequence: int,
        target: Callable[..., None],
        items: List[tuple],
    ) -> None:
        self._simulator = weakref.ref(simulator)
        self._time = time
        self._priority = priority
        self._sequence = sequence
        self._target = target
        self._items = items
        self._next = 0

    def fire(self) -> None:
        simulator = self._simulator()
        heap = simulator._heap
        time, priority, sequence = self._time, self._priority, self._sequence
        target = self._target
        items = self._items
        index = self._next
        last = len(items) - 1
        target(*items[index])
        while index < last:
            index += 1
            if heap and heap[0] < (time, priority, sequence + index):
                self._next = index
                heapq.heappush(heap, (time, priority, sequence + index, self.fire, ()))
                return
            # the loop that popped this entry counts the last call made
            simulator._processed += 1
            target(*items[index])


class Simulator:
    """Event-driven simulation kernel with a floating-point clock (seconds)."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, int, Callable[..., None], tuple]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of callback calls executed so far (each fan-out call counts)."""
        return self._processed

    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        priority: int = 0,
        each: Optional[List[tuple]] = None,
        args: Tuple[Any, ...] = (),
    ) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        With ``each`` (a non-empty list of argument tuples) one entry makes
        ``callback(*args)`` for every ``args`` in order, at the same time
        and priority, exactly as if each call had been scheduled here
        separately.
        """
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        time = self._now + delay
        if each is None:
            heapq.heappush(self._heap, (time, priority, next(self._sequence), callback, args))
            return
        if not each:
            raise ValueError("a fan-out needs at least one call")
        if args:
            raise ValueError("a fan-out takes each call's arguments from each")
        sequence = next(self._sequence)
        self._sequence = itertools.count(sequence + len(each))
        fan_out = _FanOut(self, time, priority, sequence, callback, each)
        heapq.heappush(self._heap, (time, priority, sequence, fan_out.fire, ()))

    def schedule_at(
        self, time: float, callback: Callable[[], None], priority: int = 0
    ) -> None:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self._now:
            raise ValueError(f"cannot schedule at {time} < now ({self._now})")
        heapq.heappush(self._heap, (time, priority, next(self._sequence), callback, ()))

    def run_until(self, end_time: float) -> None:
        """Run events until the clock would pass ``end_time``.

        The clock is left at ``end_time`` even if the heap drains earlier,
        so back-to-back ``run_until`` calls compose naturally.
        """
        if end_time < self._now:
            raise ValueError(f"end_time {end_time} is in the past (now={self._now})")
        heap = self._heap
        pop = heapq.heappop
        while heap:
            if heap[0][0] > end_time:
                break
            self._now, _, _, callback, args = pop(heap)
            callback(*args)
            self._processed += 1
        self._now = max(self._now, end_time)

    def run(self, duration: float) -> None:
        """Run for ``duration`` simulated seconds from the current time."""
        self.run_until(self._now + duration)


class PeriodicTimer:
    """Repeatedly invokes a callback every ``period`` seconds.

    The first invocation happens after ``initial_delay`` (default: one full
    period, optionally jittered to de-synchronise many nodes' beacons).
    """

    def __init__(
        self,
        simulator: Simulator,
        period: float,
        callback: Callable[[], None],
        initial_delay: Optional[float] = None,
        jitter: float = 0.0,
        rng=None,
        priority: int = 0,
    ) -> None:
        if period <= 0:
            raise ValueError("period must be positive")
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if jitter > 0 and rng is None:
            raise ValueError("rng required when jitter > 0")
        self._simulator = simulator
        self.period = period
        self.callback = callback
        self.jitter = jitter
        self._rng = rng
        self._priority = priority
        self._stopped = False
        first = period if initial_delay is None else initial_delay
        first += self._draw_jitter()
        simulator.schedule(first, self._fire, priority)

    def _draw_jitter(self) -> float:
        if self.jitter > 0:
            return self._rng.uniform(0.0, self.jitter)
        return 0.0

    def _fire(self) -> None:
        if self._stopped:
            return
        self.callback()
        if not self._stopped:
            self._simulator.schedule(
                self.period + self._draw_jitter(), self._fire, self._priority
            )

    def stop(self) -> None:
        """Stop the timer; no further invocations will occur.

        The tick already in the heap still runs (and counts in
        :attr:`Simulator.processed_events`), as a no-op.
        """
        self._stopped = True
