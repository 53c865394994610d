"""Radio propagation / reception models.

"Two MNs communicate directly if they are within the radio transmission
range of each other" (paper Section 1) -- the unit-disk model.  A
log-distance shadowing model is also provided for sensitivity experiments
where connectivity is probabilistic near the nominal range edge.

Both models are registered with :func:`repro.registry.register_radio`
(``unit_disk`` and ``log_distance``), so a scenario selects its radio by
name (``ScenarioConfig.radio``) and grids can sweep it like any other
axis.
"""

from __future__ import annotations

import abc
import math
from typing import Optional

from repro.geo.geometry import Point, distance
from repro.registry import register_radio


class RadioModel(abc.ABC):
    """Decides whether a transmission between two positions is receivable."""

    def in_range(self, a: Point, b: Point) -> bool:
        """True if a node at ``b`` can possibly hear a node at ``a``.

        The one disc test every radio shares: within :attr:`nominal_range`
        plus 1e-9.  ``Network._neighbor_table`` inlines this arithmetic, so
        radios do not override it; a radio hears less than the disc by
        returning lower :meth:`reception_probability` values.
        """
        return math.hypot(a.x - b.x, a.y - b.y) <= self.nominal_range + 1e-9

    @abc.abstractmethod
    def reception_probability(self, a: Point, b: Point) -> float:
        """Probability that one frame sent at ``a`` is decoded at ``b``."""

    @property
    @abc.abstractmethod
    def nominal_range(self) -> float:
        """Nominal radio range in metres (used for neighbour-grid sizing)."""

    def note_transmission(
        self, sender: int, position: Point, start: float, end: float
    ) -> None:
        """Inform the radio that ``sender`` occupies the medium over an interval.

        The transmit path calls this for every frame (retries included)
        before deciding its receivers.  Interference-blind radios ignore
        it; interference-aware radios record the interval for SINR
        bookkeeping.
        """

    def reception_probability_during(
        self,
        sender: int,
        sender_pos: Point,
        receiver: int,
        receiver_pos: Point,
        start: float,
        end: float,
    ) -> float:
        """Reception probability given the frames concurrently on the air.

        Default: delegate to the interval-blind
        :meth:`reception_probability` -- classic radios see exactly the
        arithmetic (and therefore the byte-identical artifacts) they
        produced before the transmit path became interference-aware.
        """
        return self.reception_probability(sender_pos, receiver_pos)


class UnitDiskRadio(RadioModel):
    """Deterministic unit-disk radio: perfect reception within ``range_m``."""

    def __init__(self, range_m: float = 250.0) -> None:
        if range_m <= 0:
            raise ValueError("radio range must be positive")
        self.range_m = range_m

    @property
    def nominal_range(self) -> float:
        return self.range_m

    def reception_probability(self, a: Point, b: Point) -> float:
        return 1.0 if self.in_range(a, b) else 0.0

    def reception_probability_during(
        self,
        sender: int,
        sender_pos: Point,
        receiver: int,
        receiver_pos: Point,
        start: float,
        end: float,
    ) -> float:
        # the transmit seam in one call: reception_probability's test inline
        in_range = (
            math.hypot(sender_pos.x - receiver_pos.x, sender_pos.y - receiver_pos.y)
            <= self.range_m + 1e-9
        )
        return 1.0 if in_range else 0.0


class LogDistanceRadio(RadioModel):
    """Log-distance path-loss radio with a soft cutoff.

    Reception probability is 1 up to ``reliable_fraction * range_m``, then
    decays smoothly to 0 at ``max_fraction * range_m`` following the
    received-power margin implied by a path-loss exponent ``exponent``.
    This captures the grey zone at the edge of the radio range without a
    full SINR model, which is all the HVDB protocol's behaviour depends on.
    """

    def __init__(
        self,
        range_m: float = 250.0,
        exponent: float = 3.0,
        reliable_fraction: float = 0.8,
        max_fraction: float = 1.2,
    ) -> None:
        if range_m <= 0:
            raise ValueError("radio range must be positive")
        if exponent <= 0:
            raise ValueError("path-loss exponent must be positive")
        if not 0 < reliable_fraction <= 1.0:
            raise ValueError("reliable_fraction must be in (0, 1]")
        if max_fraction < 1.0:
            raise ValueError("max_fraction must be >= 1.0")
        self.range_m = range_m
        self.exponent = exponent
        self.reliable_fraction = reliable_fraction
        self.max_fraction = max_fraction

    @property
    def nominal_range(self) -> float:
        return self.range_m * self.max_fraction

    def reception_probability(self, a: Point, b: Point) -> float:
        d = distance(a, b)
        reliable = self.range_m * self.reliable_fraction
        cutoff = self.range_m * self.max_fraction
        if d <= reliable:
            return 1.0
        if d >= cutoff:
            return 0.0
        # smooth decay shaped by the path-loss exponent: steeper exponents
        # give a narrower grey zone.
        frac = (d - reliable) / (cutoff - reliable)
        return max(0.0, min(1.0, (1.0 - frac) ** self.exponent))


@register_radio("unit_disk")
def _unit_disk_radio(config=None) -> UnitDiskRadio:
    """Registered factory: deterministic unit disk at ``config.radio_range``."""
    return UnitDiskRadio() if config is None else UnitDiskRadio(config.radio_range)


@register_radio("log_distance")
def _log_distance_radio(config=None) -> LogDistanceRadio:
    """Registered factory: log-distance shadowing at ``config.radio_range``."""
    return LogDistanceRadio() if config is None else LogDistanceRadio(config.radio_range)
