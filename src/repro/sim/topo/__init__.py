"""Pluggable interconnect topologies for the inter-unit fabric.

See :mod:`repro.sim.topo.base` for the interface,
:mod:`repro.sim.topo.regular` for the concrete fabrics
(``all_to_all`` / ``ring`` / ``mesh2d`` / ``torus2d``), and
:mod:`repro.sim.topo.faults` for permanent link-fault plans.  Routing is
static: the pristine shortest-path table, with a BFS detour around dead
channels once a fault severs a route.
"""

from repro.sim.topo.base import (
    Channel,
    Route,
    Topology,
    build_topology,
    mesh_shape,
)
from repro.sim.topo.faults import (
    FabricPartitionedError,
    FaultEvent,
    FaultPlan,
    parse_fault_spec,
    parse_link_profile,
    unreachable_pairs,
)
from repro.sim.topo.regular import TOPOLOGIES, AllToAll, Mesh2D, Ring, Torus2D

__all__ = [
    "AllToAll",
    "Channel",
    "FabricPartitionedError",
    "FaultEvent",
    "FaultPlan",
    "Mesh2D",
    "Ring",
    "Route",
    "TOPOLOGIES",
    "Topology",
    "Torus2D",
    "build_topology",
    "mesh_shape",
    "parse_fault_spec",
    "parse_link_profile",
    "unreachable_pairs",
]
