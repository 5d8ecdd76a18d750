"""Experiment harness: spec-driven plans, one function per paper figure.

Layering: :mod:`~repro.harness.specs` declares runs,
:mod:`~repro.harness.runner` executes them (parallel workers + result
cache), and :mod:`~repro.harness.experiments` / ``motivation`` /
``ablations`` plan figures as ``(specs, render)`` for :func:`run_plan`.
"""

from repro.harness import experiments, motivation
from repro.harness.reporting import format_table, geomean, summarize_speedups
from repro.harness.runner import (
    execution_options,
    run_plan,
    run_specs,
    set_execution_options,
)
from repro.harness.specs import RunSpec
from repro.harness.store import ShardedDirStore, open_store

__all__ = ["experiments", "motivation", "format_table", "geomean",
           "summarize_speedups", "RunSpec", "run_plan", "run_specs",
           "execution_options", "set_execution_options",
           "ShardedDirStore", "open_store"]
