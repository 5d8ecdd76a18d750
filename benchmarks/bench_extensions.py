"""Extension benches: spin-wait baselines, overflow target, rw locks.

These quantify the repository's additions beyond the paper's own figures
(see ``repro.harness.ablations``):

- the Sec. 2.2.1 argument against shared-memory spinning, measured;
- the Sec. 4.6 shared-cache overflow adaptation for conventional systems;
- the reader-writer lock extension vs a plain mutex;
- the Sec. 4.4.2 fairness threshold's throughput/fairness trade.
"""

from repro.harness import ablations
from repro.harness.plotting import bar_chart, line_chart
from repro.harness.reporting import format_table
from repro.harness.runner import run_plan


def test_spin_baselines_lose_under_contention(once):
    """Bakery < remote atomics < message passing < SynCron < Ideal on a
    contended lock — the Sec. 2.2.1 ordering."""
    rows = once(lambda: run_plan(
        ablations.spin_baselines(core_steps=(15, 30, 60))))
    print()
    print(format_table(rows, columns=(
        "cores", "bakery", "rmw_spin", "central", "hier", "syncron", "ideal",
    ), title="Extension: spin-wait baselines (lock Mops/s)"))
    print()
    print(line_chart(rows, "cores",
                     ("bakery", "rmw_spin", "syncron", "ideal"),
                     title="lock throughput vs cores"))
    for row in rows:
        assert row["bakery"] < row["rmw_spin"], "O(N) scans must lose to rmw"
        assert row["syncron"] > row["rmw_spin"], "spinning must lose to SEs"
        assert row["ideal"] >= row["syncron"]
    # Spinning's global traffic explodes once multiple units contend.
    multi_unit = [row for row in rows if row["units"] > 1]
    for row in multi_unit:
        assert row["rmw_spin_global_msgs"] > row["syncron_global_msgs"]


def test_overflow_target_shared_cache(once):
    """Sec. 4.6: with DDR4 main memory, shared-cache overflow state beats
    DRAM-resident syncronVar once the ST actually overflows."""
    rows = once(lambda: run_plan(
        ablations.overflow_target_sweep(st_sizes=(8, 16, 64))))
    print()
    print(format_table(rows, title="Extension: overflow target (BST_FG, DDR4)"))
    overflowing = [row for row in rows if row["memory_overflow_pct"] > 5.0]
    assert overflowing, "sweep must include an overflowing ST size"
    for row in overflowing:
        assert row["shared_cache"] >= row["memory"] * 0.98
    # With no overflow the knob must be inert (same throughput either way).
    quiet = [row for row in rows if row["memory_overflow_pct"] == 0.0]
    for row in quiet:
        assert abs(row["shared_cache"] - row["memory"]) / row["memory"] < 0.01


def test_rwlock_beats_mutex_when_read_heavy(once):
    """The rw-lock extension: readers share, so read-heavy mixes overtake
    a plain mutex; write-heavy mixes pay the one-level coordination."""
    rows = once(lambda: run_plan(ablations.rwlock_read_ratio(
        read_pcts=(0, 50, 90, 100)
    )))
    print()
    print(format_table(rows, title="Extension: rw lock vs mutex (Mops/s)"))
    print()
    print(bar_chart(
        {f"r{row['read_pct']}%": row["syncron"] for row in rows},
        title="rw-lock throughput vs read ratio (syncron)",
    ))
    read_heavy = rows[-1]
    assert read_heavy["read_pct"] == 100
    assert read_heavy["syncron"] > read_heavy["mutex"], (
        "an all-reader mix must beat the serializing mutex"
    )
    # Monotonic: more readers, more concurrency.
    series = [row["syncron"] for row in rows]
    assert series == sorted(series)


def test_unionfind_rw_beats_mutex(once):
    """The realistic rw-lock application: read-locked finds dominate a
    dense edge stream, so the rw lock outruns the mutex."""
    rows = once(lambda: run_plan(
        ablations.unionfind_connectivity(datasets=("wk",))))
    print()
    print(format_table(rows, title="Extension: union-find connectivity"))
    for row in rows:
        assert row["syncron_rw_speedup"] > 1.0


def test_fairness_threshold_trade(once):
    """Sec. 4.4.2: a small threshold collapses the cross-unit finish-time
    spread at some throughput cost."""
    rows = once(lambda: run_plan(
        ablations.fairness_sweep(thresholds=(0, 2, 8))))
    print()
    print(format_table(rows, title="Extension: fairness threshold (2 units)"))
    unfair = rows[0]
    fair = rows[1]
    assert unfair["threshold"] == 0
    assert fair["unit_finish_spread"] < unfair["unit_finish_spread"]
    assert fair["makespan"] >= unfair["makespan"] * 0.95


def test_smt_contexts_hide_stalls(once):
    """Sec. 4 SMT note: splitting each core's work across 2 contexts cuts
    makespan by overlapping sync/memory stalls; 4 contexts saturate the
    shared 1-IPC pipeline."""
    rows = once(lambda: run_plan(ablations.smt_sweep(thread_counts=(1, 2, 4))))
    print()
    print(format_table(rows, title="Extension: hardware thread contexts per core"))
    one, two = rows[0], rows[1]
    assert two["syncron"] < one["syncron"], "2 contexts must beat 1"
    # Ideal has no sync stalls to hide, so SMT helps it less (relatively).
    syncron_gain = one["syncron"] / two["syncron"]
    ideal_gain = one["ideal"] / two["ideal"]
    assert syncron_gain > ideal_gain * 0.9


def test_se_latency_knee(once):
    """SynCron's edge over Hier survives a much slower SPU: the advantage
    comes from the ST and hierarchy, not just the 12-cycle service."""
    rows = once(lambda: run_plan(
        ablations.se_vs_server_latency(se_cycles=(3, 12, 96))))
    print()
    print(format_table(rows, title="Extension: SE service-time knee (stack)"))
    assert rows[0]["syncron_vs_hier"] >= rows[-1]["syncron_vs_hier"]
    paper_point = next(row for row in rows if row["se_service_cycles"] == 12)
    assert paper_point["syncron_vs_hier"] > 1.0
