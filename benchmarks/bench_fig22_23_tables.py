"""Fig. 22 (ST size), Fig. 23 (overflow schemes), Tables 4, 7, 8."""

import os

from repro.core.area import se_area, table4_comparison, table8_rows
from repro.harness.experiments import APP_INPUTS, fig22, fig23, table7
from repro.harness.reporting import format_table
from repro.harness.runner import run_plan


def test_fig22_st_size_sensitivity(once):
    combos = ("ts.air", "ts.pow") if os.environ.get("REPRO_SCALE", "small") == "small" \
        else ("cc.wk", "pr.wk", "ts.air", "ts.pow")
    rows = once(lambda: run_plan(
        fig22(combos=combos, st_sizes=(64, 16, 4, 2))))
    print()
    print(format_table(rows, title="Fig 22: slowdown vs 64-entry ST "
                                   "(+ % overflowed requests)"))
    for row in rows:
        # shrinking the ST can only increase overflow and never helps much.
        assert row["ST_2_overflow_pct"] >= row["ST_64_overflow_pct"]
        assert row["ST_2"] >= row["ST_64"] * 0.95
        # the default 64-entry ST serves these apps without overflow
        # (paper Sec. 6.7.2: no overflows in any real application).
        assert row["ST_64_overflow_pct"] == 0.0


def test_fig23_overflow_schemes(once):
    rows = once(lambda: run_plan(fig23(st_sizes=(8, 16, 32, 64))))
    print()
    print(format_table(
        rows,
        columns=["st_entries", "syncron", "syncron_central_ovrfl",
                 "syncron_distrib_ovrfl", "syncron_overflow_pct"],
        title="Fig 23: BST_FG throughput (ops/ms) by overflow scheme",
    ))
    overflowing = [r for r in rows if r["syncron_overflow_pct"] > 5]
    assert overflowing, "the sweep must include overflowing points"
    for row in overflowing:
        # the MiSAR-style central fallback degrades much more than
        # SynCron's integrated scheme (paper: 12.3% vs 3.2%).
        assert row["syncron"] > row["syncron_central_ovrfl"]
    # with a big-enough ST all schemes coincide.
    clean = rows[-1]
    assert clean["syncron_overflow_pct"] == 0.0
    assert clean["syncron"] == clean["syncron_central_ovrfl"]


def test_table7_st_occupancy(once):
    combos = ("bfs.wk", "pr.wk", "ts.air", "ts.pow") \
        if os.environ.get("REPRO_SCALE", "small") == "small" else tuple(APP_INPUTS)
    rows = once(lambda: run_plan(table7(combos=combos)))
    print()
    print(format_table(rows, title="Table 7: ST occupancy (max/avg %)"))
    by_app = {r["app"]: r for r in rows}
    # ts is the paper's occupancy outlier (44% avg vs ~2-6% for graphs).
    graph_avg = max(r["avg_pct"] for a, r in by_app.items() if not a.startswith("ts."))
    ts_avg = min(r["avg_pct"] for a, r in by_app.items() if a.startswith("ts."))
    assert ts_avg > graph_avg
    for row in rows:
        assert row["max_pct"] <= 100.0


def test_table4_qualitative_comparison(once):
    rows = once(table4_comparison)
    print()
    print(format_table(rows, title="Table 4: SynCron vs prior mechanisms"))
    syncron = rows[-1]
    assert syncron["primitives"] == "4" and syncron["isa_extensions"] == "2"


def test_table8_area_power(once):
    rows = once(table8_rows)
    print()
    print(format_table(rows, title="Table 8: SE vs ARM Cortex-A7"))
    report = se_area()
    # Paper: 0.0461 mm^2 and 2.7 mW — about 10% of a Cortex-A7's area and
    # 2.7% of its power.
    assert abs(report.total_mm2 - 0.0461) < 1e-3
    assert report.fraction_of_cortex_a7_power < 0.03
