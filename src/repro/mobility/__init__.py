"""Mobility models (System S3).

MANET nodes move; the clustering layer's mobility-prediction CH election
and every evaluation experiment need realistic motion.  Three models are
provided, all sharing the :class:`~repro.mobility.base.MobilityModel`
interface (per-node state advanced in discrete time steps inside an
:class:`~repro.geo.area.Area`):

* :class:`~repro.mobility.static.StaticMobility` -- nodes never move
  (useful for deterministic structural tests).
* :class:`~repro.mobility.random_waypoint.RandomWaypointMobility` -- the
  standard MANET evaluation model: pick a destination, travel at a random
  speed, pause, repeat.
* :class:`~repro.mobility.group_mobility.ReferencePointGroupMobility` --
  RPGM: groups follow a logical centre (battlefield platoons, rescue
  teams), matching the paper's motivating scenarios.

The scenario-facing models are registered by name with
:func:`repro.registry.register_mobility` (``random_waypoint`` and
``static``), so ``ScenarioConfig.mobility`` selects one declaratively and
sweeps can use it as a grid axis; each factory takes ``(config,
node_ids)`` and derives speeds/seeding from the config.
"""

from repro.mobility.base import MobilityModel, NodeMotionState
from repro.mobility.static import StaticMobility
from repro.mobility.random_waypoint import RandomWaypointMobility
from repro.mobility.group_mobility import ReferencePointGroupMobility
from repro.registry import register_mobility


def _static_if_stationary(config, node_ids):
    """Degradation rule: ``max_speed <= 0`` means nobody moves."""
    if config.max_speed <= 0:
        return StaticMobility(config.area(), node_ids, seed=config.seed)
    return None


def _min_speed(config) -> float:
    """Speed floor of random waypoint: 10% of max, at least 0.5, but never
    above ``max_speed`` itself."""
    return min(config.max_speed, max(0.5, config.max_speed * 0.1))


@register_mobility("random_waypoint")
def _random_waypoint(config, node_ids) -> MobilityModel:
    """The default evaluation model; ``max_speed <= 0`` degrades to static."""
    return _static_if_stationary(config, node_ids) or RandomWaypointMobility(
        config.area(),
        node_ids,
        min_speed=_min_speed(config),
        max_speed=config.max_speed,
        pause_time=config.pause_time,
        seed=config.seed,
    )


@register_mobility("static")
def _static(config, node_ids) -> MobilityModel:
    """Nodes never move, regardless of ``max_speed``."""
    return StaticMobility(config.area(), node_ids, seed=config.seed)


__all__ = [
    "MobilityModel",
    "NodeMotionState",
    "StaticMobility",
    "RandomWaypointMobility",
    "ReferencePointGroupMobility",
]
