"""Simplified shared-medium link layer.

The HVDB protocol lives far above the MAC; what its evaluation needs from
the link layer is (1) a per-hop latency that grows with load, (2) a finite
per-node bandwidth so overhead translates into congestion, and (3) frame
loss.  :class:`SimpleCsmaMac` models exactly that: transmission time =
frame size / bandwidth, queueing approximated by a contention factor that
scales with the number of neighbours currently contending, plus a constant
propagation/processing delay and an independent loss probability on top of
whatever the radio model decides.

Both models are registered with :func:`repro.registry.register_mac`
(``csma`` and ``ideal``), so a scenario selects its link layer by name
(``ScenarioConfig.mac``) and grids can sweep it like any other axis.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Tuple

from repro.registry import register_mac


class TxPlan(NamedTuple):
    """The MAC's verdict on one frame handed over for transmission.

    ``proceed=False`` means the MAC refused the frame outright (e.g. a
    duty-cycle budget was exhausted); the network then drops it without
    occupying the medium.  ``airtime`` is the time the frame keeps the
    medium busy -- what interference-aware radios are told about and what
    duty-cycle accounting charges; ``delay`` additionally includes the
    MAC's deferral and processing latency.
    """

    proceed: bool
    delay: float
    loss_probability: float
    airtime: float


class MacModel(abc.ABC):
    """Computes per-hop delay and loss for frame transmissions."""

    #: the default plan's memo, keyed by ``(size_bytes, contenders)``; a
    #: MAC that keeps the default plan owns one (a dataclass field)
    _plans: Dict[Tuple[int, int], TxPlan]

    @abc.abstractmethod
    def transmission_delay(self, size_bytes: int, contenders: int) -> float:
        """Seconds between hand-over to the MAC and reception at a neighbour."""

    @abc.abstractmethod
    def loss_probability(self, contenders: int) -> float:
        """Frame loss probability added by the MAC (collisions, queue drops).

        Implementations must return a value in [0, 1] for every
        non-negative contender count, however large.
        """

    def plan_transmission(
        self,
        sender: int,
        now: float,
        size_bytes: int,
        contenders: int,
        rng: random.Random,
    ) -> TxPlan:
        """Resolve one frame into a :class:`TxPlan` (the transmit-path seam).

        The default plan is a pure function of ``(size_bytes,
        contenders)``: it consumes nothing from ``rng`` and is the classic
        pair of :meth:`transmission_delay` / :meth:`loss_probability`
        calls, so it is built once per key and memoised on the instance
        (``_plans``).  A MAC whose plan depends on anything else -- the
        sender, the clock, random draws, mutable parameters -- must
        override this, as stateful MACs (backoff draws, duty-cycle
        budgets) do.
        """
        key = (size_bytes, contenders)
        plan = self._plans.get(key)
        if plan is None:
            delay = self.transmission_delay(size_bytes, contenders)
            # positional: proceed, delay, loss_probability, airtime
            plan = self._plans[key] = TxPlan(
                True, delay, self.loss_probability(contenders), delay
            )
        return plan


@dataclass(frozen=True)
class SimpleCsmaMac(MacModel):
    """CSMA-flavoured MAC abstraction.

    Frozen, so no parameter can change under a memoised plan.

    Parameters
    ----------
    bandwidth_bps:
        Raw link bandwidth in bits per second (2 Mb/s is the classical
        802.11 figure used in MANET papers of the period).
    base_latency:
        Constant per-hop processing + propagation delay in seconds.
    contention_factor:
        Extra delay per contending neighbour, expressed as a multiple of
        the frame transmission time (models carrier-sense deferral).
    collision_probability_per_contender:
        Additional loss probability contributed by each contending
        neighbour, capped at ``max_collision_probability``.
    """

    bandwidth_bps: float = 2_000_000.0
    base_latency: float = 0.002
    contention_factor: float = 0.10
    collision_probability_per_contender: float = 0.004
    max_collision_probability: float = 0.35
    _plans: Dict[Tuple[int, int], TxPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth must be positive")
        if self.base_latency < 0 or self.contention_factor < 0:
            raise ValueError("latency parameters must be non-negative")
        if not 0 <= self.collision_probability_per_contender <= 1:
            raise ValueError("collision probability per contender must be in [0, 1]")
        if not 0 <= self.max_collision_probability <= 1:
            raise ValueError("max collision probability must be in [0, 1]")

    def transmission_delay(self, size_bytes: int, contenders: int) -> float:
        if size_bytes < 0:
            raise ValueError("size must be non-negative")
        if contenders < 0:
            raise ValueError("contenders must be non-negative")
        frame_time = (size_bytes * 8.0) / self.bandwidth_bps
        deferral = frame_time * self.contention_factor * contenders
        return self.base_latency + frame_time + deferral

    def loss_probability(self, contenders: int) -> float:
        if contenders < 0:
            raise ValueError("contenders must be non-negative")
        # the explicit [0, 1] clamp keeps the MacModel contract even for
        # adversarial contender counts where the product overflows the
        # configured cap's intent (e.g. float rounding at ~1e300 rivals)
        return min(
            1.0,
            max(
                0.0,
                min(
                    self.max_collision_probability,
                    self.collision_probability_per_contender * contenders,
                ),
            ),
        )


@dataclass(frozen=True)
class IdealMac(MacModel):
    """Loss-free, constant-delay MAC for unit tests and structural studies."""

    delay: float = 0.001
    _plans: Dict[Tuple[int, int], TxPlan] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def transmission_delay(self, size_bytes: int, contenders: int) -> float:
        return self.delay

    def loss_probability(self, contenders: int) -> float:
        return 0.0


@register_mac("csma")
def _csma_mac(config=None) -> SimpleCsmaMac:
    """Registered factory: the CSMA-flavoured MAC with default parameters."""
    return SimpleCsmaMac()


@register_mac("ideal")
def _ideal_mac(config=None) -> IdealMac:
    """Registered factory: loss-free constant-delay MAC (structural studies)."""
    return IdealMac()
