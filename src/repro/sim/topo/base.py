"""Topology interface: nodes, shortest-path routes, physical channels.

A :class:`Topology` is pure geometry — it knows how many nodes the fabric
connects and, for every ordered node pair, the sequence of *directed
physical channels* a packet crosses.  A channel is a hashable identifier
(a ``(from_node, to_node)`` tuple for the regular fabrics); the
:class:`~repro.sim.network.Interconnect` owns one
:class:`~repro.sim.network.Link` object per channel, so two routes that
share a channel contend for the same serialized resource and multi-hop
latency emerges from the route length rather than from a per-pair constant.

Routes are shortest paths, computed deterministically (dimension-order /
fixed tie-breaking) and memoized per ordered pair — the routing table is
static for a run, exactly like the table-based routers the paper's NDP
fabrics would use.

Concrete fabrics live in :mod:`repro.sim.topo.regular`;
:func:`build_topology` instantiates the one a
:class:`~repro.sim.config.SystemConfig` names.
"""

from __future__ import annotations

import math
import warnings
from typing import AbstractSet, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # avoid an import cycle: config validates via this package
    from repro.sim.config import SystemConfig

#: a directed physical channel: (from_node, to_node).
Channel = Tuple[int, int]
#: a route: the channels a packet crosses, in traversal order.
Route = Tuple[Channel, ...]


class Topology:
    """Base class: node count + memoized shortest-path routing table."""

    #: registry name; subclasses override.
    name = "topology"

    def __init__(self, num_nodes: int):
        if num_nodes < 1:
            raise ValueError("topology needs at least one node")
        self.num_nodes = num_nodes
        self._routes: Dict[Tuple[int, int], Route] = {}
        self._adjacency: Optional[Dict[int, Tuple[int, ...]]] = None

    # ------------------------------------------------------------------
    def compute_route(self, src: int, dst: int) -> List[Channel]:
        """Shortest channel sequence from ``src`` to ``dst`` (``src != dst``)."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def route(self, src: int, dst: int) -> Route:
        """Memoized routing-table lookup; ``()`` for the degenerate src==dst."""
        key = (src, dst)
        cached = self._routes.get(key)
        if cached is None:
            if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
                raise ValueError(
                    f"nodes must be in [0, {self.num_nodes}), got {src}->{dst}"
                )
            cached = () if src == dst else tuple(self.compute_route(src, dst))
            self._routes[key] = cached
        return cached

    def hops(self, src: int, dst: int) -> int:
        return len(self.route(src, dst))

    def routing_table(self) -> Dict[Tuple[int, int], Route]:
        """The full table (forces every pair; diagnostics and tests)."""
        for src in range(self.num_nodes):
            for dst in range(self.num_nodes):
                self.route(src, dst)
        return dict(self._routes)

    def channels(self) -> Tuple[Channel, ...]:
        """Every directed channel any route uses, sorted (diagnostics)."""
        table = self.routing_table()
        return tuple(sorted({ch for route in table.values() for ch in route}))

    def diameter(self) -> int:
        """Maximum hop count over all ordered pairs."""
        table = self.routing_table()
        return max((len(route) for route in table.values()), default=0)

    def mean_hops(self) -> float:
        """Average hop count over all ordered pairs with src != dst."""
        table = self.routing_table()
        remote = [len(r) for (s, d), r in table.items() if s != d]
        return sum(remote) / len(remote) if remote else 0.0

    # ------------------------------------------------------------------
    # Graph view (rerouting around failed links)
    # ------------------------------------------------------------------
    def adjacency(self) -> Dict[int, Tuple[int, ...]]:
        """node -> neighbors one physical channel away, sorted (memoized).

        Derived from :meth:`channels`, so it covers exactly the channels the
        pristine routing tables use — the channel set the interconnect owns
        :class:`~repro.sim.network.Link` objects for.
        """
        if self._adjacency is None:
            neighbors: Dict[int, set] = {n: set() for n in range(self.num_nodes)}
            for src, dst in self.channels():
                neighbors[src].add(dst)
            self._adjacency = {
                n: tuple(sorted(s)) for n, s in neighbors.items()
            }
        return self._adjacency

    def fallback_route(
        self,
        src: int,
        dst: int,
        dead_channels: AbstractSet[Channel] = frozenset(),
    ) -> Optional[Route]:
        """Shortest path avoiding ``dead_channels`` by BFS, or ``None`` if
        ``dst`` is unreachable.

        Deterministic: layers expand in sorted-neighbor order, so equal-
        length alternatives always resolve the same way.
        """
        if not (0 <= src < self.num_nodes and 0 <= dst < self.num_nodes):
            raise ValueError(
                f"nodes must be in [0, {self.num_nodes}), got {src}->{dst}"
            )
        if src == dst:
            return ()
        adjacency = self.adjacency()
        parent: Dict[int, Optional[int]] = {src: None}
        frontier = [src]
        while frontier:
            next_frontier = []
            for node in frontier:
                for nbr in adjacency[node]:
                    if nbr in parent or (node, nbr) in dead_channels:
                        continue
                    parent[nbr] = node
                    if nbr == dst:
                        path = [dst]
                        while path[-1] != src:
                            path.append(parent[path[-1]])
                        path.reverse()
                        return tuple(zip(path, path[1:]))
                    next_frontier.append(nbr)
            frontier = next_frontier
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(num_nodes={self.num_nodes})"


def mesh_shape(num_nodes: int, rows: int = 0) -> Tuple[int, int]:
    """Resolve a grid shape: explicit ``rows`` or the squarest factorization.

    With ``rows == 0`` the grid is as close to square as ``num_nodes``
    allows (16 -> 4x4, 12 -> 3x4).  A prime ``num_nodes`` has no
    non-trivial factorization and falls back to a 1xN *line* — a
    legitimate fabric, but with twice the diameter of a near-square grid,
    so the degradation is announced with a ``RuntimeWarning`` rather than
    silently skewing topology comparisons.
    """
    if rows < 0:
        raise ValueError("topo_rows must be non-negative")
    if rows:
        if num_nodes % rows:
            raise ValueError(
                f"topo_rows={rows} does not divide num_units={num_nodes}"
            )
        return rows, num_nodes // rows
    side = math.isqrt(num_nodes)
    while num_nodes % side:
        side -= 1
    if side == 1 and num_nodes > 2:
        warnings.warn(
            f"num_units={num_nodes} is prime: the grid degenerates to a "
            f"1x{num_nodes} line (pass topo_rows or pick a composite unit "
            "count for a real mesh)",
            RuntimeWarning,
            stacklevel=2,
        )
    return side, num_nodes // side


def build_topology(config: "SystemConfig") -> Topology:
    """Instantiate the fabric a :class:`SystemConfig` names."""
    from repro.sim.topo.regular import TOPOLOGIES  # subclasses import base

    try:
        cls = TOPOLOGIES[config.topology]
    except KeyError:
        raise ValueError(
            f"unknown topology {config.topology!r}; choose from "
            f"{sorted(TOPOLOGIES)}"
        )
    if cls.GRID:
        return cls(config.num_units, rows=config.topo_rows)
    return cls(config.num_units)
