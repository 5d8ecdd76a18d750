"""Fig. 12 (real-application speedups over Central, 26 combos) and
Fig. 13 (SynCron scalability across NDP units)."""

import os

import pytest

from repro.harness.experiments import (
    APP_INPUTS,
    MECHANISMS,
    fig12,
    fig13,
    headline_summary,
)
from repro.harness.reporting import format_table
from repro.harness.runner import run_plan

# the full 26-combo sweep is for REPRO_SCALE>=medium runs; small scale uses
# a representative subset per kernel family to keep the suite brisk.
SMALL_SUBSET = ("bfs.wk", "cc.sl", "sssp.wk", "pr.wk", "tf.sl", "tc.sx",
                "ts.air", "ts.pow")


def _combos():
    if os.environ.get("REPRO_SCALE", "small") == "small":
        return SMALL_SUBSET
    return tuple(APP_INPUTS)


def test_fig12_real_application_speedups(once):
    rows = once(lambda: run_plan(fig12(combos=_combos())))
    print()
    print(format_table(rows, columns=["app"] + list(MECHANISMS),
                       title="Fig 12: speedup over Central"))
    summary = headline_summary(rows)
    print(f"headline: SynCron vs Central {summary['syncron_vs_central']:.2f}x "
          f"(paper 1.47x), vs Hier {summary['syncron_vs_hier']:.2f}x "
          f"(paper 1.23x), overhead vs Ideal "
          f"{summary['syncron_overhead_vs_ideal_pct']:.1f}% (paper 9.5%)")
    # Shape assertions: SynCron wins on average, Hier sits between.
    assert summary["syncron_vs_central"] > 1.1
    assert summary["syncron_vs_hier"] > 1.0
    for row in rows:
        assert row["ideal"] >= row["syncron"] * 0.99


def test_fig13_syncron_scalability(once):
    combos = ("pr.wk", "ts.air") if os.environ.get("REPRO_SCALE", "small") == "small" \
        else ("bfs.sl", "cc.sx", "sssp.co", "pr.wk", "tf.sl", "tc.sx", "ts.air", "ts.pow")
    rows = once(lambda: run_plan(fig13(combos=combos)))
    print()
    print(format_table(rows, title="Fig 13: SynCron speedup vs 1 NDP unit"))
    for row in rows:
        # performance scales with units (paper: 2.03x average at 4 units).
        assert row["4_units"] > row["1_units"]
