"""Extension-experiment harness: row schemas and qualitative shapes.

Small parameterizations keep these fast; the full-size versions live in
``benchmarks/bench_extensions.py``.
"""

import pytest

from repro.harness import ablations
from repro.harness.runner import run_plan
from repro.sim.config import ndp_2_5d
from repro.workloads.base import run_workload
from repro.workloads.rwbench import RWLockMicrobench


class TestRWLockMicrobench:
    def test_rejects_bad_read_pct(self):
        with pytest.raises(ValueError):
            RWLockMicrobench(read_pct=101)

    def test_counts_and_verifies(self):
        config = ndp_2_5d(num_units=2, cores_per_unit=4, client_cores_per_unit=3)
        metrics = run_workload(
            lambda: RWLockMicrobench(read_pct=80, rounds=5), config, "syncron"
        )
        assert metrics.operations == 5 * 6
        assert metrics.cycles > 0

    def test_all_read_mix_issues_no_writes(self):
        config = ndp_2_5d(num_units=1, cores_per_unit=4, client_cores_per_unit=3)
        workload = RWLockMicrobench(read_pct=100, rounds=4)
        system_metrics = None
        from repro.sim.system import NDPSystem

        system = NDPSystem(config, mechanism="syncron")
        workload.run(system)
        assert workload._state["updates"] == 0
        assert workload._state["lookups"] == 4 * 3
        del system_metrics

    def test_all_write_mix_issues_no_reads(self):
        config = ndp_2_5d(num_units=1, cores_per_unit=4, client_cores_per_unit=3)
        from repro.sim.system import NDPSystem

        workload = RWLockMicrobench(read_pct=0, rounds=4)
        workload.run(NDPSystem(config, mechanism="syncron"))
        assert workload._state["lookups"] == 0
        assert workload._state["updates"] == 4 * 3

    def test_mutex_mode_matches_operation_count(self):
        config = ndp_2_5d(num_units=1, cores_per_unit=4, client_cores_per_unit=3)
        metrics = run_workload(
            lambda: RWLockMicrobench(read_pct=50, rounds=4, mutex_mode=True),
            config, "syncron",
        )
        assert metrics.operations == 4 * 3


class TestAblationRows:
    def test_spin_baselines_schema_and_ordering(self):
        rows = run_plan(ablations.spin_baselines(
            core_steps=(15,), mechanisms=("bakery", "rmw_spin", "syncron"),
            rounds=4,
        ))
        assert len(rows) == 1
        row = rows[0]
        assert row["cores"] == 15 and row["units"] == 1
        assert row["bakery"] < row["rmw_spin"] < row["syncron"]

    def test_overflow_target_sweep_schema(self):
        rows = run_plan(ablations.overflow_target_sweep(st_sizes=(4,)))
        row = rows[0]
        assert row["st_entries"] == 4
        assert row["memory_overflow_pct"] > 0
        assert row["shared_cache"] > 0 and row["memory"] > 0

    def test_rwlock_read_ratio_monotone(self):
        rows = run_plan(ablations.rwlock_read_ratio(
            read_pcts=(0, 100), mechanisms=("syncron",), rounds=5
        ))
        assert rows[0]["syncron"] < rows[1]["syncron"]
        assert rows[1]["syncron"] > rows[1]["mutex"]

    def test_fairness_sweep_reduces_spread(self):
        rows = run_plan(ablations.fairness_sweep(thresholds=(0, 2), rounds=8))
        unfair, fair = rows
        assert unfair["acquires"] == fair["acquires"]
        assert fair["unit_finish_spread"] < unfair["unit_finish_spread"]

    def test_se_knee_monotone_in_service_time(self):
        rows = run_plan(ablations.se_vs_server_latency(se_cycles=(3, 96)))
        assert rows[0]["syncron_ops_ms"] >= rows[1]["syncron_ops_ms"]
        # Hier is untouched by the SE knob.
        assert rows[0]["hier_ops_ms"] == rows[1]["hier_ops_ms"]
