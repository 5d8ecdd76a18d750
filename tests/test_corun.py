"""Multi-tenant co-run scenarios: partitioning, tenant views, per-tenant
attribution, the single-tenant isolation bit-identity, and the baseline
correctness fixes that ride along (shared kind rule, configured async issue
cost, owned-slot striped allocation, speedup guard)."""

import math

import pytest

from repro.core import api
from repro.sim.config import ndp_2_5d
from repro.sim.memmap import AddressMap
from repro.sim.syncif import SyncUsageError
from repro.sim.system import NDPSystem
from repro.sim.tenancy import TenantView, derive_units
from repro.workloads.base import RunMetrics, run_workload
from repro.workloads.corun import CorunWorkload, TenantSpec, partition_cores
from repro.workloads.microbench import PrimitiveMicrobench

from repro.testing import ALL_MECHANISMS, SPIN_MECHANISMS, build_system


def _lock_bench(rounds=4, interval=60):
    return PrimitiveMicrobench("lock", interval, rounds=rounds)


def _barrier_bench(rounds=4, interval=60):
    return PrimitiveMicrobench("barrier", interval, rounds=rounds)


# ----------------------------------------------------------------------
# Partitioning
# ----------------------------------------------------------------------
class TestPartitioning:
    def test_single_default_tenant_gets_everything(self, quad_config):
        system = build_system(quad_config)
        [(cores, units)] = partition_cores(
            system, [TenantSpec("only", _lock_bench)]
        )
        assert cores == system.cores
        assert units == tuple(range(quad_config.num_units))

    def test_unit_slices_take_whole_units(self, quad_config):
        system = build_system(quad_config)
        (a_cores, a_units), (b_cores, b_units) = partition_cores(system, [
            TenantSpec("a", _lock_bench, units=(0, 1)),
            TenantSpec("b", _lock_bench, units=(2, 3)),
        ])
        assert a_units == (0, 1) and b_units == (2, 3)
        assert {c.unit_id for c in a_cores} == {0, 1}
        assert {c.unit_id for c in b_cores} == {2, 3}
        assert len(a_cores) + len(b_cores) == len(system.cores)

    def test_core_counts_are_contiguous_and_rest_splits_evenly(self, quad_config):
        system = build_system(quad_config)
        (a, _), (b, _), (c, _) = partition_cores(system, [
            TenantSpec("a", _lock_bench, cores=5),
            TenantSpec("b", _lock_bench),
            TenantSpec("c", _lock_bench),
        ])
        total = len(system.cores)
        assert [x.core_id for x in a] == list(range(5))
        assert len(b) + len(c) == total - 5
        assert abs(len(b) - len(c)) <= 1
        # no overlap, full coverage
        ids = [x.core_id for x in a + b + c]
        assert sorted(ids) == list(range(total))

    def test_explicit_core_ids_take_exactly_those_cores(self, quad_config):
        system = build_system(quad_config)
        (a, a_units), (b, _) = partition_cores(system, [
            TenantSpec("a", _lock_bench, core_ids=(5, 6, 7)),
            TenantSpec("b", _lock_bench),
        ])
        assert [c.core_id for c in a] == [5, 6, 7]
        assert a_units == derive_units(a)
        assert 5 not in {c.core_id for c in b}

    def test_unknown_core_ids_rejected(self, tiny_config):
        system = build_system(tiny_config)
        with pytest.raises(ValueError, match="invalid core ids"):
            partition_cores(system, [
                TenantSpec("a", _lock_bench, core_ids=(999,)),
            ])

    def test_overlapping_units_rejected(self, quad_config):
        system = build_system(quad_config)
        with pytest.raises(ValueError, match="both claim"):
            partition_cores(system, [
                TenantSpec("a", _lock_bench, units=(0, 1)),
                TenantSpec("b", _lock_bench, units=(1, 2)),
            ])

    def test_oversubscription_rejected(self, tiny_config):
        system = build_system(tiny_config)
        with pytest.raises(ValueError, match="only"):
            partition_cores(system, [
                TenantSpec("a", _lock_bench, cores=len(system.cores) + 1),
            ])

    def test_units_and_cores_both_given_rejected(self):
        with pytest.raises(ValueError, match="at most one"):
            TenantSpec("a", _lock_bench, cores=3, units=(0,))

    def test_duplicate_tenant_names_rejected(self):
        with pytest.raises(ValueError, match="unique"):
            CorunWorkload([TenantSpec("x", _lock_bench),
                           TenantSpec("x", _barrier_bench)])


# ----------------------------------------------------------------------
# Tenant views (logical remapping)
# ----------------------------------------------------------------------
class TestTenantView:
    def _view(self, system, units):
        tstats = system.stats.add_tenant("t")
        cores = [c for c in system.cores if c.unit_id in set(units)]
        return TenantView(system, tstats, cores, units)

    def test_logical_unit_remapping(self, quad_config):
        system = build_system(quad_config)
        view = self._view(system, (2, 3))
        assert view.config.num_units == 2
        assert [c.unit_id for c in view.cores] == sorted(
            c.unit_id - 2 for c in view.physical_cores
        )
        # allocations in logical unit 0 land in physical unit 2's memory
        addr = view.addrmap.alloc(0, 64)
        assert system.addrmap.unit_of(addr) == 2

    def test_syncvar_round_robin_over_tenant_units(self, quad_config):
        system = build_system(quad_config)
        view = self._view(system, (1, 3))
        vars_ = [view.create_syncvar() for _ in range(4)]
        assert [v.unit for v in vars_] == [1, 3, 1, 3]
        assert all(v.owner is view.tstats for v in vars_)

    def test_whole_machine_view_is_identity(self, quad_config):
        system = build_system(quad_config)
        view = self._view(system, tuple(range(quad_config.num_units)))
        assert view.config is system.config
        assert [c.unit_id for c in view.cores] == [
            c.unit_id for c in system.cores
        ]
        assert [c.core_id for c in view.cores] == [
            c.core_id for c in system.cores
        ]

    def test_striped_array_stays_in_tenant_units(self, quad_config):
        system = build_system(quad_config)
        view = self._view(system, (1, 2))
        addrs = view.addrmap.alloc_striped_array(5, 8)
        assert [system.addrmap.unit_of(a) for a in addrs] == [1, 2, 1, 2, 1]

    def test_foreign_address_rejected(self, quad_config):
        system = build_system(quad_config)
        view = self._view(system, (0, 1))
        foreign = system.addrmap.alloc(3, 64)
        with pytest.raises(ValueError, match="outside"):
            view.addrmap.unit_of(foreign)

    def test_views_never_run_programs(self, quad_config):
        system = build_system(quad_config)
        view = self._view(system, (0,))
        with pytest.raises(RuntimeError, match="never run"):
            view.run_programs({})

    def test_derive_units_is_ordered_and_distinct(self, quad_config):
        system = build_system(quad_config)
        assert derive_units(system.cores) == tuple(
            range(quad_config.num_units)
        )


# ----------------------------------------------------------------------
# Isolation: one tenant over the whole machine == the plain run
# ----------------------------------------------------------------------
class TestIsolation:
    #: covers hardware (syncron), software-server (hier/central), ideal,
    #: and both spin baselines — well past the >=3 the issue asks for.
    MECHANISMS = ("syncron", "hier", "central", "ideal", "rmw_spin")

    @pytest.mark.parametrize("mechanism", MECHANISMS)
    def test_single_tenant_is_bit_identical(self, tiny_config, mechanism):
        solo = run_workload(_lock_bench, tiny_config, mechanism)
        corun = run_workload(
            lambda: CorunWorkload([TenantSpec("only", _lock_bench)]),
            tiny_config, mechanism,
        )
        assert corun.cycles == solo.cycles
        assert corun.energy == solo.energy
        assert corun.bytes_inside_units == solo.bytes_inside_units
        assert corun.bytes_across_units == solo.bytes_across_units
        assert corun.sync_requests == solo.sync_requests
        # and the whole-machine tenant is attributed everything
        assert corun.stats["tenant.only.cycles"] == solo.cycles
        assert corun.stats["tenant.only.sync_requests"] == solo.sync_requests


# ----------------------------------------------------------------------
# Two-tenant co-runs: attribution and summaries
# ----------------------------------------------------------------------
class TestCorunAttribution:
    def _corun(self, config, mechanism="syncron"):
        workload = CorunWorkload([
            TenantSpec("locky", _lock_bench, units=(0,)),
            TenantSpec("barry", _barrier_bench, units=(1,)),
        ])
        system = NDPSystem(config, mechanism=mechanism)
        return workload.run(system), workload, system

    def test_per_tenant_counters_present_and_bounded(self, tiny_config):
        metrics, workload, system = self._corun(tiny_config)
        stats = metrics.stats
        for name in ("locky", "barry"):
            assert stats[f"tenant.{name}.cycles"] > 0
            assert stats[f"tenant.{name}.sync_requests"] > 0
        # attribution never exceeds the global counters
        for field in ("sync_requests", "bytes_inside_units",
                      "bytes_across_units"):
            total = sum(
                stats[f"tenant.{t}.{field}"] for t in ("locky", "barry")
            )
            global_field = ("sync_requests_total" if field == "sync_requests"
                            else field)
            assert total <= stats[global_field]

    def test_makespan_and_fairness_summary(self, tiny_config):
        metrics, workload, system = self._corun(tiny_config)
        stats = metrics.stats
        per_tenant = [stats["tenant.locky.cycles"], stats["tenant.barry.cycles"]]
        assert stats["tenant_summary.makespan"] == max(per_tenant)
        assert metrics.cycles == max(per_tenant)
        expected = min(per_tenant) / max(per_tenant)
        assert stats["tenant_summary.fairness"] == pytest.approx(expected)

    def test_tenant_vars_confined_to_their_units(self, tiny_config):
        _metrics, workload, system = self._corun(tiny_config)
        locky, barry = workload.views
        assert set(derive_units(locky.physical_cores)) == {0}
        assert set(derive_units(barry.physical_cores)) == {1}

    def test_corun_instances_are_single_use(self, tiny_config):
        _metrics, workload, system = self._corun(tiny_config)
        with pytest.raises(RuntimeError, match="single-use"):
            workload.build(system)


# ----------------------------------------------------------------------
# Spec/registry/cache integration
# ----------------------------------------------------------------------
class TestCorunSpecs:
    TENANTS = [
        {"name": "locky", "workload": "primitive",
         "args": {"primitive": "lock", "interval": 60, "rounds": 3},
         "units": [0]},
        {"name": "barry", "workload": "primitive",
         "args": {"primitive": "barrier", "interval": 60, "rounds": 3},
         "units": [1]},
    ]

    def _spec(self, mechanism="syncron"):
        from repro.harness.specs import RunSpec

        return RunSpec.make(
            "corun", mechanism, args={"tenants": self.TENANTS},
            overrides={"num_units": 2, "cores_per_unit": 4,
                       "client_cores_per_unit": 3},
        )

    def test_spec_hashes_stably_and_builds(self):
        spec = self._spec()
        assert spec.cache_key() == self._spec().cache_key()
        workload = spec.build_workload()
        assert isinstance(workload, CorunWorkload)
        assert [t.name for t in workload.tenants] == ["locky", "barry"]
        assert workload.tenants[0].units == (0,)

    def test_tenant_metrics_survive_the_result_cache(self, tmp_path):
        from repro.harness.runner import STATS, run_specs

        spec = self._spec()
        cold = run_specs([spec], cache=True, store=str(tmp_path))[0]
        before = STATS.executed
        warm = run_specs([spec], cache=True, store=str(tmp_path))[0]
        assert STATS.executed == before  # zero simulations on the warm run
        assert isinstance(warm, RunMetrics)
        assert warm.cycles == cold.cycles
        for key, value in cold.stats.items():
            assert warm.stats[key] == value
        assert any(k.startswith("tenant.locky.") for k in warm.stats)

    def test_unknown_tenant_workload_rejected(self):
        from repro.harness.specs import build_corun

        with pytest.raises(ValueError, match="unknown workload"):
            build_corun([{"workload": "nope"}])

    def test_corun_does_not_nest(self):
        from repro.harness.specs import build_corun

        with pytest.raises(ValueError, match="nest"):
            build_corun([{"workload": "corun"}])


# ----------------------------------------------------------------------
# Interference experiment (small scale)
# ----------------------------------------------------------------------
class TestInterferenceExperiment:
    def test_emits_slowdown_vs_alone_per_cell(self):
        from repro.harness.experiments import interference
        from repro.harness.runner import run_plan

        rows = run_plan(interference(
            groups=[("lock", "barrier")],
            mechanisms=("central", "syncron"),
            topologies=("all_to_all", "ring"),
            interval=60, rounds=2,
            base_overrides={"num_units": 2, "cores_per_unit": 4,
                            "client_cores_per_unit": 3},
        ))
        assert len(rows) == 4  # 1 group x 2 fabrics x 2 mechanisms
        for row in rows:
            assert row["pair"] == "lock+barrier"
            assert row["lock_slowdown"] >= 1.0 or math.isclose(
                row["lock_slowdown"], 1.0)
            assert row["barrier_slowdown"] > 0
            assert 0 < row["fairness"] <= 1.0
            assert row["makespan"] >= max(row["lock_cycles"],
                                          row["barrier_cycles"])

    def test_core_split_pins_solo_baseline_to_the_corun_slice(self):
        """The 'alone' run of a core-granular tenant must occupy exactly the
        cores it had in the co-run (not a fresh slice from core 0)."""
        from repro.harness.experiments import interference
        from repro.harness.runner import run_plan

        rows = run_plan(interference(
            groups=[("lock", "barrier")],
            mechanisms=("syncron",),
            topologies=("all_to_all",),
            interval=60, rounds=2, core_split=(2, 4),
            base_overrides={"num_units": 2, "cores_per_unit": 4,
                            "client_cores_per_unit": 3},
        ))
        [row] = rows
        # both tenants share unit 0 -> the lock tenant sees real slowdown,
        # and its baseline ran on its own cores (0,1), not somewhere else
        assert row["lock_slowdown"] >= 1.0
        assert row["barrier_slowdown"] >= 1.0
        assert row["lock_alone_cycles"] > 0
        # the property itself, pinned at the partitioner level: a solo
        # tenant with the co-run's explicit core ids occupies exactly the
        # same cores (a count-based solo slice would start at core 0)
        cfg = ndp_2_5d(num_units=2, cores_per_unit=4,
                       client_cores_per_unit=3)
        co = partition_cores(build_system(cfg), [
            TenantSpec("lock", _lock_bench, core_ids=tuple(range(0, 2))),
            TenantSpec("barrier", _barrier_bench, core_ids=tuple(range(2, 6))),
        ])
        solo = partition_cores(build_system(cfg), [
            TenantSpec("barrier", _barrier_bench, core_ids=tuple(range(2, 6))),
        ])
        assert ([c.core_id for c in solo[0][0]]
                == [c.core_id for c in co[1][0]] == [2, 3, 4, 5])

    def test_isolation_check_rows(self):
        from repro.harness.experiments import isolation_check
        from repro.harness.runner import run_plan

        rows = run_plan(isolation_check(
            descs=("lock",), mechanisms=("syncron", "ideal"),
            interval=60, rounds=2,
            base_overrides={"num_units": 2, "cores_per_unit": 4,
                            "client_cores_per_unit": 3},
        ))
        assert [r["mechanism"] for r in rows] == ["syncron", "ideal"]
        assert all(r["identical"] for r in rows)


# ----------------------------------------------------------------------
# Satellite: the single-use kind rule holds under EVERY mechanism
# ----------------------------------------------------------------------
class TestKindRuleEverywhere:
    @pytest.mark.parametrize("mechanism", ALL_MECHANISMS + SPIN_MECHANISMS)
    def test_lock_then_barrier_raises(self, tiny_config, mechanism):
        """Regression: bakery/rmw_spin silently accepted a variable used as
        both lock and barrier while SynCron raised; the check now lives in
        the shared mechanism layer."""
        system = build_system(tiny_config, mechanism)
        var = system.create_syncvar(name="mixed")

        def worker():
            yield api.lock_acquire(var)
            yield api.lock_release(var)
            yield api.barrier_wait_across_units(var, 1)

        with pytest.raises(SyncUsageError, match="used as lock"):
            system.run_programs({0: worker()})


# ----------------------------------------------------------------------
# Satellite: configured async issue cost (no fresh lambda per release)
# ----------------------------------------------------------------------
class TestAsyncIssueCost:
    @pytest.mark.parametrize("mechanism",
                             ("syncron", "ideal", "bakery", "rmw_spin"))
    def test_request_async_returns_configured_cost(self, mechanism):
        config = ndp_2_5d(num_units=2, cores_per_unit=4,
                          client_cores_per_unit=3, async_issue_cycles=7)
        system = NDPSystem(config, mechanism=mechanism)
        lock = system.create_syncvar()
        core = system.cores[0]
        system.mechanism.request(core, "lock_acquire", lock, 0, lambda: None)
        system.sim.run()
        cost = system.mechanism.request_async(core, "lock_release", lock, 0)
        assert cost == 7

    def test_invalid_issue_cost_rejected(self):
        with pytest.raises(ValueError, match="async issue"):
            ndp_2_5d(async_issue_cycles=0).validate()


# ----------------------------------------------------------------------
# Satellite: owned-slot striped allocation + speedup guard
# ----------------------------------------------------------------------
class TestStripedAllocation:
    def test_small_array_leaves_trailing_units_untouched(self):
        amap = AddressMap(4, 1 << 20)
        addrs = amap.alloc_striped_array(2, 8)
        assert [amap.unit_of(a) for a in addrs] == [0, 1]
        assert amap.bytes_used(2) == 0 and amap.bytes_used(3) == 0

    def test_uneven_array_allocates_exact_owned_slots(self):
        amap = AddressMap(4, 1 << 20)
        addrs = amap.alloc_striped_array(5, 8)
        assert [amap.unit_of(a) for a in addrs] == [0, 1, 2, 3, 0]
        assert amap.bytes_used(0) == 16  # two slots
        assert amap.bytes_used(1) == 8   # one slot
        assert len(set(addrs)) == 5

    def test_empty_array_rejected(self):
        amap = AddressMap(4, 1 << 20)
        with pytest.raises(ValueError, match="positive"):
            amap.alloc_striped_array(0)


class TestSpeedupGuard:
    def _metrics(self, cycles):
        from repro.sim.energy import EnergyBreakdown

        return RunMetrics(
            mechanism="syncron", cycles=cycles, operations=1,
            energy=EnergyBreakdown(0.0, 0.0, 0.0), bytes_inside_units=0,
            bytes_across_units=0, sync_requests=0, overflow_request_pct=0.0,
            st_occupancy_max_pct=0.0, st_occupancy_avg_pct=0.0, stats={},
        )

    def test_zero_cycle_baseline_is_nan_not_zero(self):
        assert math.isnan(self._metrics(100).speedup_over(self._metrics(0)))

    def test_two_empty_runs_compare_equal(self):
        assert self._metrics(0).speedup_over(self._metrics(0)) == 1.0

    def test_empty_run_over_real_baseline_is_inf(self):
        assert self._metrics(0).speedup_over(self._metrics(50)) == math.inf

    def test_normal_ratio_unchanged(self):
        assert self._metrics(50).speedup_over(self._metrics(100)) == 2.0
