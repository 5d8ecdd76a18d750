"""Fig. 10: speedup of each synchronization primitive vs the instruction
interval between synchronization points (Central / Hier / SynCron / Ideal,
60 cores, one variable)."""

import pytest

from repro.harness.experiments import FIG10_INTERVALS, fig10
from repro.harness.reporting import format_table
from repro.harness.runner import run_plan

MECHS = ("central", "hier", "syncron", "ideal")


@pytest.mark.parametrize("primitive", ("lock", "barrier", "semaphore", "condvar"))
def test_fig10_primitive_speedups(once, primitive):
    intervals = FIG10_INTERVALS[primitive][:5]
    rows = once(lambda: run_plan(
        fig10(primitive, intervals=intervals, mechanisms=MECHS)))
    print()
    print(format_table(
        rows, columns=["interval"] + list(MECHS),
        title=f"Fig 10 ({primitive}): speedup over Central",
    ))
    tightest = rows[0]   # smallest interval = highest sync intensity
    loosest = rows[-1]
    # SynCron beats Central and Hier under high synchronization intensity…
    assert tightest["syncron"] > 1.0
    assert tightest["syncron"] >= tightest["hier"] * 0.98
    # …and the schemes converge as synchronization gets diluted.
    assert (loosest["syncron"] - 1.0) < (tightest["syncron"] - 1.0) + 0.5
    # Ideal bounds everything.
    assert tightest["ideal"] >= tightest["syncron"] * 0.99
