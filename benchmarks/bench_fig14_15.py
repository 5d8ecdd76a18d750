"""Fig. 14 (energy breakdown) and Fig. 15 (data movement), C/H/SC/I."""

from repro.harness.experiments import fig14, fig15
from repro.harness.reporting import format_table
from repro.harness.runner import run_plan

COMBOS = ("cc.wk", "pr.wk", "ts.air")


def test_fig14_energy_breakdown(once):
    rows = once(lambda: run_plan(fig14(combos=COMBOS)))
    print()
    flat = []
    for row in rows:
        for mech in ("central", "hier", "syncron", "ideal"):
            parts = row[mech]
            flat.append({
                "app": row["app"], "mech": mech,
                "cache": parts["cache"], "network": parts["network"],
                "memory": parts["memory"], "total": parts["total"],
            })
    print(format_table(flat, title="Fig 14: energy normalized to Central"))
    for row in rows:
        # SynCron reduces total energy vs both server-core schemes
        # (paper: 2.22x vs Central, 1.94x vs Hier on average).
        assert row["syncron"]["total"] < row["central"]["total"]
        assert row["syncron"]["total"] <= row["hier"]["total"] * 1.02
        # and lands near Ideal (paper: 6.2% overhead).
        assert row["syncron"]["total"] <= row["ideal"]["total"] * 1.6


def test_fig15_data_movement(once):
    rows = once(lambda: run_plan(fig15(combos=COMBOS)))
    print()
    flat = []
    for row in rows:
        for mech in ("central", "hier", "syncron", "ideal"):
            parts = row[mech]
            flat.append({
                "app": row["app"], "mech": mech,
                "inside": parts["inside"], "across": parts["across"],
                "total": parts["total"],
            })
    print(format_table(flat, title="Fig 15: bytes moved, normalized to Central"))
    for row in rows:
        # Central moves the most across units; SynCron cuts both components
        # (paper: 2.08x / 2.04x average reduction, within 13.8% of Ideal).
        assert row["syncron"]["across"] < row["central"]["across"]
        assert row["syncron"]["total"] < row["central"]["total"]
        assert row["syncron"]["total"] <= row["hier"]["total"] * 1.02
