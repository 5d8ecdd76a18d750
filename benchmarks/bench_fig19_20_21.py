"""Fig. 19 (data placement), Fig. 20/21 (hierarchical vs flat ablation)."""

import os

from repro.harness.experiments import fig19, fig20, fig21a, fig21b
from repro.harness.reporting import format_table
from repro.harness.runner import run_plan


def test_fig19_partitioning_effect(once):
    datasets = ("wk",) if os.environ.get("REPRO_SCALE", "small") == "small" \
        else ("wk", "sl", "sx", "co")
    rows = once(lambda: run_plan(fig19(datasets=datasets)))
    print()
    print(format_table(
        rows,
        columns=["dataset", "partitioning", "central", "hier", "syncron",
                 "ideal", "max_st_occupancy_pct"],
        title="Fig 19: pagerank speedup over Central(random), by partitioning",
    ))
    for dataset in datasets:
        pair = {r["partitioning"]: r for r in rows if r["dataset"] == dataset}
        # the METIS substitute really cuts fewer edges…
        assert pair["metis"]["edge_cut_metis"] < pair["metis"]["edge_cut_random"]
        # …SynCron still wins with better placement…
        assert pair["metis"]["syncron"] >= pair["metis"]["central"]
        assert pair["metis"]["syncron"] >= pair["metis"]["hier"] * 0.95
        # …and ST occupancy drops (locality keeps variables single-SE).
        assert (pair["metis"]["max_st_occupancy_pct"]
                <= pair["random"]["max_st_occupancy_pct"] + 1e-9)


def test_fig20_flat_vs_hier_low_contention(once):
    combos = ("bfs.wk", "cc.sl", "pr.wk", "tc.sx") \
        if os.environ.get("REPRO_SCALE", "small") == "small" else None
    rows = once(lambda: run_plan(fig20(combos=combos)))
    print()
    print(format_table(rows, title="Fig 20: SynCron speedup normalized to flat"))
    # Low contention + sync non-intensive: flat and hierarchical are close
    # (paper: SynCron within ~1.1% of flat on average).
    import math

    avg = math.exp(sum(math.log(r["syncron_vs_flat"]) for r in rows) / len(rows))
    assert 0.85 <= avg <= 1.2


def test_fig21a_flat_vs_hier_sync_intensive(once):
    rows = once(lambda: run_plan(fig21a(latencies_ns=(40, 500))))
    print()
    print(format_table(rows, title="Fig 21a: ts, SynCron normalized to flat"))
    # Paper: SynCron is a few % behind flat at 40 ns and the gap narrows as
    # the links slow down.
    for app in ("ts.air", "ts.pow"):
        series = [r for r in rows if r["app"] == app]
        assert series[0]["syncron_vs_flat"] > 0.8
        assert series[-1]["syncron_vs_flat"] >= series[0]["syncron_vs_flat"] * 0.95


def test_fig21b_flat_vs_hier_high_contention(once):
    rows = once(lambda: run_plan(
        fig21b(latencies_ns=(40, 500), core_counts=(30, 60))))
    print()
    print(format_table(rows, title="Fig 21b: queue, SynCron normalized to flat"))
    # High contention: hierarchy wins, and wins harder as non-uniformity
    # grows (paper: 1.23x..2.14x).
    for row in rows:
        assert row["syncron_vs_flat"] > 1.0
    for cores in (30, 60):
        series = [r for r in rows if r["cores"] == cores]
        assert series[-1]["syncron_vs_flat"] >= series[0]["syncron_vs_flat"]
