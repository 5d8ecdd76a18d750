"""Fig. 16/17 (inter-unit link-latency sensitivity) and Fig. 18 (memory
technologies)."""

import os

from repro.harness.experiments import fig16, fig17, fig18
from repro.harness.reporting import format_table
from repro.harness.runner import run_plan


def test_fig16_high_contention_link_sensitivity(once):
    latencies = (40, 200, 1000, 4500) if os.environ.get("REPRO_SCALE", "small") == "small" \
        else (40, 100, 200, 500, 1000, 2000, 4500, 9000)
    rows = once(lambda: run_plan(fig16(structures=("stack", "priority_queue"),
                                       latencies_ns=latencies)))
    print()
    print(format_table(rows, title="Fig 16: throughput (Mops/s) vs link latency"))
    by_structure = {}
    for row in rows:
        by_structure.setdefault(row["structure"], []).append(row)
    for structure, series in by_structure.items():
        fastest, slowest = series[0], series[-1]
        # Central is hit hardest by slow links (it is oblivious to
        # non-uniformity); hierarchical schemes track the workload (Ideal).
        central_drop = fastest["central"] / max(slowest["central"], 1e-12)
        syncron_drop = fastest["syncron"] / max(slowest["syncron"], 1e-12)
        assert central_drop > syncron_drop
        # SynCron stays the best non-ideal scheme at high latency.
        assert slowest["syncron"] >= slowest["hier"] * 0.95
        assert slowest["syncron"] > slowest["central"]


def test_fig17_low_contention_link_sensitivity(once):
    rows = once(lambda: run_plan(fig17(latencies_ns=(40, 100, 200, 500))))
    print()
    print(format_table(rows, title="Fig 17: pr.wk slowdown vs Ideal (lower is better)"))
    # Paper at 500 ns: Central 2.67, Hier 1.37, SynCron 1.17.
    last = rows[-1]
    assert last["central"] > last["hier"] > last["syncron"] >= 1.0
    # Central's slowdown must grow with latency; SynCron's stays flat-ish.
    assert rows[-1]["central"] > rows[0]["central"]
    assert rows[-1]["syncron"] < rows[0]["syncron"] * 1.5


def test_fig18_memory_technologies(once):
    combos = ("cc.wk", "ts.pow")
    rows = once(lambda: run_plan(fig18(combos=combos)))
    print()
    print(format_table(rows, title="Fig 18: speedup over Central per memory tech"))
    for row in rows:
        # SynCron wins regardless of memory technology…
        assert row["syncron"] > 1.0
        assert row["syncron"] >= row["hier"] * 0.95
    # …and its edge over Hier grows with memory latency (HBM -> DDR4),
    # because direct ST buffering avoids the slower memory entirely.
    for combo in combos:
        series = {r["memory"]: r for r in rows if r["app"] == combo}
        edge_hbm = series["HBM"]["syncron"] / series["HBM"]["hier"]
        edge_ddr4 = series["DDR4"]["syncron"] / series["DDR4"]["hier"]
        assert edge_ddr4 >= edge_hbm * 0.95
