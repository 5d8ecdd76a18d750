"""Workloads: microbenchmarks, data structures, graphs, time series.

Only the plumbing and the primitive microbenchmark are re-exported; each
workload family (``datastructures``, ``graphs``, ``timeseries``, ``corun``,
...) is imported by name where a run needs it, so a process pays only for
the families it runs.
"""

from repro.workloads.base import (
    RunMetrics,
    Workload,
    collect_metrics,
    run_workload,
    scale,
    scaled,
)
from repro.workloads.microbench import PRIMITIVES, PrimitiveMicrobench

__all__ = [
    "PRIMITIVES",
    "PrimitiveMicrobench",
    "RunMetrics",
    "Workload",
    "collect_metrics",
    "run_workload",
    "scale",
    "scaled",
]
