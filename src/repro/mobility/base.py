"""Common interface for mobility models."""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.geo.area import Area, BoundaryPolicy
from repro.geo.geometry import Point, Vector


@dataclass(frozen=True, slots=True)
class NodeMotionState:
    """Kinematic state of one node at one instant."""

    position: Point
    velocity: Vector


class MobilityModel(abc.ABC):
    """Base class for all mobility models.

    A model owns the motion state of a fixed set of node identifiers.  The
    simulator calls :meth:`advance` once per mobility epoch; models keep
    any per-node bookkeeping (waypoints, pause timers, velocity memory)
    internally.

    Subclasses must implement :meth:`_initial_state` and :meth:`_step`.
    """

    #: boundary handling used when a step would leave the area
    boundary_policy: BoundaryPolicy = BoundaryPolicy.REFLECT

    def __init__(self, area: Area, node_ids: Iterable[int], seed: Optional[int] = None) -> None:
        self.area = area
        self.node_ids: List[int] = list(node_ids)
        if len(set(self.node_ids)) != len(self.node_ids):
            raise ValueError("duplicate node ids")
        self.rng = random.Random(seed)
        self._states: Dict[int, NodeMotionState] = {}
        for node_id in self.node_ids:
            self._states[node_id] = self._initial_state(node_id)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def position(self, node_id: int) -> Point:
        return self._states[node_id].position

    def velocity(self, node_id: int) -> Vector:
        return self._states[node_id].velocity

    def advance(self, dt: float) -> None:
        """Advance every node by ``dt`` seconds.

        A stepped state inside the area (bounds inclusive, as
        :meth:`Area.contains`) is stored as :meth:`_step` returned it; only
        a position outside goes through :meth:`Area.apply_boundary`.
        """
        if dt < 0:
            raise ValueError("dt must be non-negative")
        if dt == 0:
            return
        states = self._states
        step = self._step
        area = self.area
        width, height = area.width, area.height
        for node_id in self.node_ids:
            new_state = step(node_id, states[node_id], dt)
            position = new_state.position
            if 0.0 <= position.x <= width and 0.0 <= position.y <= height:
                states[node_id] = new_state
                continue
            position, velocity = area.apply_boundary(
                position, new_state.velocity, self.boundary_policy
            )
            states[node_id] = NodeMotionState(position, velocity)

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _initial_state(self, node_id: int) -> NodeMotionState:
        """Create the initial kinematic state of ``node_id``."""

    @abc.abstractmethod
    def _step(self, node_id: int, state: NodeMotionState, dt: float) -> NodeMotionState:
        """Advance ``node_id`` by ``dt`` seconds and return the new state.

        Implementations may return positions outside the area; the caller
        applies the boundary policy afterwards.
        """

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------
    def _uniform_position(self) -> Point:
        return self.area.random_point(self.rng)
