"""Table 1 and Fig. 2: the motivational coherence experiments."""

from repro.harness.motivation import fig2, table1
from repro.harness.reporting import format_table
from repro.harness.runner import run_plan


def test_table1_coherence_lock_throughput(once):
    rows = once(lambda: run_plan(table1()))
    print()
    print(format_table(rows, title="Table 1: lock throughput (Mops/s), 2-socket CPU"))
    for row in rows:
        # contention collapse 1 -> 14 threads (paper: 3.91x / 2.77x drops).
        assert row["14 threads single-socket"] < row["1 thread single-socket"]
        # NUMA penalty (paper: up to 2.29x drop).
        assert (row["2 threads different-socket"]
                < row["2 threads same-socket"])


def test_fig2_mesi_lock_stack_slowdown(once):
    result = once(lambda: run_plan(fig2()))
    print()
    print(format_table(result["a_cores"],
                       title="Fig 2a: stack slowdown (mesi-lock / ideal-lock), 1 unit"))
    print(format_table(result["b_units"],
                       title="Fig 2b: stack slowdown, 60 cores across units"))
    # Paper: ~2.03x at 60 cores / 1 unit; ~2.66x at 4 units.  We assert the
    # qualitative claim: a MESI lock costs the stack >1.5x everywhere.
    for row in result["a_cores"] + result["b_units"]:
        assert row["slowdown"] > 1.5
