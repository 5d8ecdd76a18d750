"""Energy accounting, stats, and harness smoke tests."""

import pytest

from repro.harness.runner import run_plan
from repro.sim.config import ndp_2_5d
from repro.sim.energy import compute_energy
from repro.sim.stats import SystemStats


class TestEnergyModel:
    def test_components_track_their_events(self):
        config = ndp_2_5d()
        stats = SystemStats()
        zero = compute_energy(stats, config)
        assert zero.total_pj == 0

        stats.cache_hits = 10
        stats.local_bit_hops = 100
        stats.dram_reads = 2
        breakdown = compute_energy(stats, config)
        assert breakdown.cache_pj == 10 * config.energy.cache_hit_pj
        assert breakdown.network_pj == pytest.approx(
            100 * config.energy.local_network_pj_per_bit_hop
        )
        assert breakdown.memory_pj == pytest.approx(
            2 * 64 * 8 * config.memory.energy_pj_per_bit
        )

    def test_link_traffic_dominates_network_energy(self):
        config = ndp_2_5d()
        stats = SystemStats()
        stats.link_bit_hops = 1000 * 8  # 1000 bytes over one physical link
        cross = compute_energy(stats, config).network_pj
        stats2 = SystemStats()
        stats2.local_bit_hops = 1000 * 8 * 2
        local = compute_energy(stats2, config).network_pj
        assert cross > local  # 4 pJ/bit/link vs 0.4 pJ/bit/hop NoC

    def test_link_energy_scales_with_hops_traversed(self):
        # the same payload over a 3-hop route costs 3x the link energy.
        config = ndp_2_5d()
        one_hop, three_hops = SystemStats(), SystemStats()
        one_hop.bytes_across_units = three_hops.bytes_across_units = 1000
        one_hop.link_bit_hops = 1000 * 8
        three_hops.link_bit_hops = 1000 * 8 * 3
        assert compute_energy(three_hops, config).network_pj == pytest.approx(
            3 * compute_energy(one_hop, config).network_pj
        )

    def test_normalization(self):
        config = ndp_2_5d()
        stats = SystemStats()
        stats.cache_hits = 10
        base = compute_energy(stats, config)
        norm = base.normalized(base)
        assert norm["total"] == pytest.approx(1.0)

    def test_syncron_saves_energy_vs_central(self, quad_config):
        from repro.workloads.base import run_workload
        from repro.workloads.datastructures import StackWorkload

        energies = {}
        for mech in ("central", "syncron"):
            metrics = run_workload(
                lambda: StackWorkload(ops_per_core=6), quad_config, mech
            )
            energies[mech] = metrics.energy.total_pj
        assert energies["syncron"] < energies["central"]


class TestStats:
    def test_occupancy_summary(self):
        stats = SystemStats()
        stats.record_st_occupancy(0, 10)
        stats.record_st_occupancy(0, 20)
        stats.record_st_occupancy(1, 40)
        summary = stats.st_occupancy_summary(64)
        assert summary["max_pct"] == pytest.approx(100 * 40 / 64)
        assert stats.st_occupancy_avg(0) == pytest.approx(15.0)

    def test_overflow_pct(self):
        stats = SystemStats()
        assert stats.overflow_request_pct == 0.0
        stats.sync_requests_total = 10
        stats.st_overflow_requests = 3
        assert stats.overflow_request_pct == pytest.approx(30.0)

    def test_as_dict_roundtrip(self):
        stats = SystemStats()
        stats.cache_hits = 5
        snapshot = stats.as_dict()
        assert snapshot["cache_hits"] == 5


class TestHarnessSmoke:
    """Every experiment function runs end-to-end with minimal parameters."""

    def test_fig10(self):
        from repro.harness.experiments import fig10

        rows = run_plan(fig10("lock", intervals=(200,), rounds=4,
                              mechanisms=("central", "syncron")))
        assert rows[0]["syncron"] > 0

    def test_fig11(self):
        from repro.harness.experiments import fig11

        rows = run_plan(fig11("stack", core_steps=(15,),
                              mechanisms=("central", "syncron")))
        assert rows[0]["syncron"] > 0

    def test_fig12_and_headline(self):
        from repro.harness.experiments import fig12, headline_summary

        rows = run_plan(fig12(combos=("tc.wk",),
                              mechanisms=("central", "hier", "syncron", "ideal")))
        summary = headline_summary(rows)
        assert summary["syncron_vs_central"] >= 1.0

    def test_fig22(self):
        from repro.harness.experiments import fig22

        rows = run_plan(fig22(combos=("tc.wk",), st_sizes=(64, 4)))
        assert rows[0]["ST_64"] == pytest.approx(1.0)

    def test_table7(self):
        from repro.harness.experiments import table7

        rows = run_plan(table7(combos=("tc.wk",)))
        assert 0 <= rows[0]["avg_pct"] <= rows[0]["max_pct"] <= 100

    def test_reporting(self):
        from repro.harness.reporting import format_table

        rows = [{"app": "x", "a": 1.0, "b": 2.0}, {"app": "y", "a": 1.0, "b": 4.0}]
        text = format_table(rows, title="T")
        assert "app" in text and "2.000" in text

    def test_format_table_empty(self):
        from repro.harness.reporting import format_table

        assert "(no rows)" in format_table([], title="x")
