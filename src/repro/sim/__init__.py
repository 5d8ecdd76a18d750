"""NDP-system simulation substrate.

This package is the stand-in for the paper's ZSim+Ramulator in-house
simulator: a deterministic discrete-event model of NDP units (in-order cores
with private L1s), per-unit crossbars with M/D/1 queueing, inter-unit serial
links, banked DRAM (HBM / HMC / DDR4), and event-counting energy/traffic
accounting.
"""

from repro.sim.config import (
    DDR4,
    HBM,
    HMC,
    MEMORY_TECHNOLOGIES,
    DramTiming,
    EnergyParams,
    SystemConfig,
    cpu_numa,
    ndp_2_5d,
    ndp_2d,
    ndp_3d,
    ndp_mesh,
)
from repro.sim.energy import EnergyBreakdown, compute_energy
from repro.sim.engine import Simulator, SimulationError
from repro.sim.program import (
    Batch,
    Compute,
    Load,
    RmwOp,
    Store,
    SyncAsyncOp,
    SyncOp,
    batch,
)
from repro.sim.smt import IssuePort
from repro.sim.stats import SystemStats
from repro.sim.syncif import SyncUsageError, SyncVar
from repro.sim.system import MECHANISM_NAMES, NDPSystem
from repro.sim.tenancy import TenantView
from repro.sim.trace import MessageTracer

__all__ = [
    "Batch",
    "IssuePort",
    "MessageTracer",
    "RmwOp",
    "batch",
    "DDR4",
    "HBM",
    "HMC",
    "MEMORY_TECHNOLOGIES",
    "MECHANISM_NAMES",
    "Compute",
    "DramTiming",
    "EnergyBreakdown",
    "EnergyParams",
    "Load",
    "NDPSystem",
    "Simulator",
    "SimulationError",
    "Store",
    "SyncAsyncOp",
    "SyncOp",
    "SyncUsageError",
    "SyncVar",
    "SystemConfig",
    "SystemStats",
    "TenantView",
    "compute_energy",
    "cpu_numa",
    "ndp_2_5d",
    "ndp_2d",
    "ndp_3d",
    "ndp_mesh",
]
