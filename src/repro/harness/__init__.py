"""Experiment harness: spec-driven sweeps, one function per paper figure.

Layering: :mod:`~repro.harness.specs` declares runs,
:mod:`~repro.harness.runner` executes them (parallel workers + result
cache), and :mod:`~repro.harness.experiments` / ``motivation`` /
``ablations`` assemble figure rows from the results.
"""

from repro.harness import experiments, motivation
from repro.harness.reporting import format_table, geomean, summarize_speedups
from repro.harness.runner import (
    execution_options,
    run_specs,
    run_sweep,
    set_execution_options,
)
from repro.harness.specs import RunSpec, SweepSpec
from repro.harness.store import ShardedDirStore, open_store

__all__ = ["experiments", "motivation", "format_table", "geomean",
           "summarize_speedups", "RunSpec", "SweepSpec", "run_specs",
           "run_sweep", "execution_options", "set_execution_options",
           "ShardedDirStore", "open_store"]
