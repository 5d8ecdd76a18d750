"""Experiment harness: spec-driven plans, one function per paper figure.

Layering: :mod:`~repro.harness.specs` declares runs,
:mod:`~repro.harness.runner` executes them (parallel workers + result
cache), and :mod:`~repro.harness.experiments` / ``motivation`` /
``ablations`` plan figures as ``(specs, render)`` for :func:`run_plan`.

Only the execution path is re-exported: a process that runs specs never
compiles the figure planners or the table formatting.  Import those
submodules by name (``from repro.harness import experiments``).
"""

from repro.harness.runner import run_plan, run_specs
from repro.harness.specs import RunSpec
from repro.harness.store import ShardedDirStore, open_store

__all__ = ["RunSpec", "run_plan", "run_specs", "ShardedDirStore",
           "open_store"]
