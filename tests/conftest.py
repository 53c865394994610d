"""Shared pytest fixtures.

Also makes the test suite runnable straight from a source checkout (without
``pip install -e .``) by putting ``src/`` on ``sys.path``.
"""

from __future__ import annotations

import math
import os
import sys

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:  # pragma: no cover - environment dependent
    sys.path.insert(0, _SRC)

import pytest

from repro.geo.area import Area
from repro.geo.geometry import distance
from repro.geo.grid import VirtualCircleGrid
from repro.mobility.static import StaticMobility
from repro.simulation.mac import IdealMac
from repro.simulation.network import Network, NetworkConfig
from repro.simulation.node import MobileNode
from repro.simulation.phy import SinrRadio
from repro.simulation.radio import LogDistanceRadio, UnitDiskRadio


@pytest.fixture
def small_area() -> Area:
    """A 1000 x 1000 m deployment area."""
    return Area(1000.0, 1000.0)


@pytest.fixture
def grid_8x8(small_area: Area) -> VirtualCircleGrid:
    """The paper's Figure 2 layout: an 8x8 virtual-circle grid."""
    return VirtualCircleGrid(small_area, 8, 8)


def make_static_network(
    positions,
    area: Area = None,
    radio_range: float = 250.0,
    seed: int = 1,
    ideal_mac: bool = True,
) -> Network:
    """Build a static network with explicitly placed nodes.

    ``positions`` maps node id -> Point.  Used by many unit and integration
    tests that need a deterministic topology.
    """
    area = area or Area(1000.0, 1000.0)
    node_ids = sorted(positions.keys())
    mobility = StaticMobility(area, node_ids, positions=positions, seed=seed)
    config = NetworkConfig(
        area=area,
        radio=UnitDiskRadio(radio_range),
        mac=IdealMac() if ideal_mac else NetworkConfig(area=area).mac,
        seed=seed,
    )
    network = Network(config, mobility)
    for node_id in node_ids:
        network.add_node(MobileNode(node_id))
    return network


@pytest.fixture
def static_network_factory():
    """Factory fixture returning :func:`make_static_network`."""
    return make_static_network


def literal_in_range(radio):
    """``radio``'s disc test, written out per radio type.

    Reference tests compare against this instead of ``radio.in_range``,
    so they do not check the code against itself.  Each entry is the
    arithmetic that radio type has always used; a newly registered radio
    needs its own entry.
    """
    if type(radio) is UnitDiskRadio:
        return lambda a, b: math.hypot(a.x - b.x, a.y - b.y) <= radio.range_m + 1e-9
    if type(radio) is LogDistanceRadio:
        return lambda a, b: distance(a, b) <= radio.range_m * radio.max_fraction + 1e-9
    if type(radio) is SinrRadio:
        return lambda a, b: distance(a, b) <= radio._range + 1e-9
    raise KeyError(f"no literal disc test for {type(radio).__name__}")
