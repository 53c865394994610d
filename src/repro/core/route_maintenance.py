"""Proactive local logical route maintenance (paper Figure 4).

Each CH maintains, for every other CH at most ``k`` logical hops away in
its hypercube, one or more *local logical routes* annotated with QoS state
(delay and bandwidth): "the information such as delay and bandwidth is
maintained in each specific local logical route, which is used for QoS
routing" (Section 4.1).

The table is filled by periodic beacon exchange with 1-logical-hop
neighbours (a distance-vector-style propagation bounded at ``k`` hops) --
the :class:`~repro.core.protocol.HVDBProtocolAgent` drives the message
exchange; this module holds the data structure and the update rules so
they can be tested in isolation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Tuple


class LinkQoS(NamedTuple):
    """QoS state of one 1-logical-hop link (an immutable record)."""

    delay: float          #: seconds across the logical link (multi-hop physical)
    bandwidth: float      #: available bandwidth in bits per second
    measured_at: float    #: simulation time of the measurement

    def combined_with(self, other: "LinkQoS") -> "LinkQoS":
        """QoS of the concatenation of two logical links."""
        return LinkQoS(
            self.delay + other.delay,
            min(self.bandwidth, other.bandwidth),
            min(self.measured_at, other.measured_at),
        )


class LogicalRoute(NamedTuple):
    """A local logical route: the HNID path plus its aggregate QoS."""

    path: Tuple[int, ...]     #: HNIDs from this CH (inclusive) to the destination
    qos: LinkQoS

    @property
    def logical_hops(self) -> int:
        """Number of logical hops (paper Section 4.1): path length minus one."""
        return len(self.path) - 1


class LogicalRouteTable:
    """Per-CH table of local logical routes, bounded at ``max_logical_hops``.

    Routes are indexed by destination HNID; multiple routes per destination
    are kept (up to ``routes_per_destination``), sorted by logical hop
    count then delay, so QoS routing can pick among alternatives and
    fail-over instantly when the preferred route breaks.
    """

    def __init__(
        self,
        own_hnid: int,
        max_logical_hops: int = 4,
        routes_per_destination: int = 3,
        expiry: float = 30.0,
    ) -> None:
        if max_logical_hops < 1:
            raise ValueError("max_logical_hops must be at least 1")
        if routes_per_destination < 1:
            raise ValueError("routes_per_destination must be at least 1")
        self.own_hnid = own_hnid
        self.max_logical_hops = max_logical_hops
        self.routes_per_destination = routes_per_destination
        self.expiry = expiry
        self._routes: Dict[int, List[LogicalRoute]] = {}
        self._neighbor_qos: Dict[int, LinkQoS] = {}
        # a lower bound on every route's ``measured_at``: inserts lower it,
        # removals leave it valid, a pruning walk recomputes it
        self._oldest = float("inf")

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def update_neighbor(self, neighbor_hnid: int, qos: LinkQoS) -> None:
        """Record / refresh the direct 1-logical-hop link to a neighbour CH."""
        if neighbor_hnid == self.own_hnid:
            raise ValueError("a CH has no logical link to itself")
        self._neighbor_qos[neighbor_hnid] = qos
        self._insert(LogicalRoute((self.own_hnid, neighbor_hnid), qos))

    def integrate_advertisement(
        self, neighbor_hnid: int, advertised: Iterable[LogicalRoute], now: float
    ) -> int:
        """Merge routes advertised by a 1-logical-hop neighbour (Figure 4, step 2).

        Each advertised route (from the neighbour's perspective) is turned
        into a route of this CH by prefixing the direct link to the
        neighbour, provided the result stays within ``max_logical_hops``,
        does not loop back through this CH, and the direct link is known.
        Returns the number of routes accepted.
        """
        link = self._neighbor_qos.get(neighbor_hnid)
        if link is None:
            return 0
        own = self.own_hnid
        accepted = 0
        for path, qos in advertised:
            # prefixing the link makes the route len(path) logical hops long
            if path[0] != neighbor_hnid or own in path or len(path) > self.max_logical_hops:
                continue
            if self._insert(LogicalRoute((own,) + path, link.combined_with(qos))):
                accepted += 1
        self.prune_expired(now)
        return accepted

    def _insert(self, route: LogicalRoute) -> bool:
        """Insert a route, keeping the per-destination list bounded and sorted.

        A route with the same path is replaced (a refresh), and the new
        route goes just after every route whose (logical hops, delay) key
        is <= its own: where appending and a stable sort would put it.
        Returns whether the route made the cut.
        """
        path, qos = route
        dest = path[-1]
        if dest == self.own_hnid:
            return False
        existing = self._routes.setdefault(dest, [])
        for i, other in enumerate(existing):
            if other.path == path:
                del existing[i]       # paths are unique within a list
                break
        key = (len(path), qos.delay)
        at = 0
        for other in existing:
            if key < (len(other.path), other.qos.delay):
                break
            at += 1
        cap = self.routes_per_destination
        if at < cap:
            existing.insert(at, route)
            if qos.measured_at < self._oldest:
                self._oldest = qos.measured_at
        del existing[cap:]
        return at < cap

    def prune_expired(self, now: float) -> int:
        """Drop routes whose QoS measurement is older than ``expiry`` seconds.

        ``now - measured_at`` never grows as ``measured_at`` grows, so
        while a route measured at the table's lower bound would not have
        expired, none has and the walk is skipped.
        """
        if now - self._oldest <= self.expiry:
            return 0
        dropped = 0
        oldest = float("inf")
        for dest, routes in list(self._routes.items()):
            kept = [r for r in routes if now - r.qos.measured_at <= self.expiry]
            dropped += len(routes) - len(kept)
            if kept:
                self._routes[dest] = kept
                oldest = min(oldest, *(r.qos.measured_at for r in kept))
            else:
                del self._routes[dest]
        self._oldest = oldest
        return dropped

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def routes_to(self, destination: int) -> List[LogicalRoute]:
        return list(self._routes.get(destination, []))

    def advertisement(self) -> List[LogicalRoute]:
        """Routes advertised in this CH's beacon (best route per destination).

        Advertising only the best route per destination keeps the beacon
        size linear in the number of reachable CHs, which is what makes the
        maintenance "local" in the paper's sense.
        """
        return [routes[0] for routes in self._routes.values() if routes]
