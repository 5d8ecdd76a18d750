"""Degraded fabrics: fault injection, rerouting, graceful degradation.

Covers the :mod:`repro.sim.topo.faults` fault plans (determinism,
connectivity guard, CLI spec grammars), the
:class:`~repro.sim.network.Interconnect`'s live fault handling (reroute /
downtime accounting / loud partition failure), heterogeneous
``link_profile`` timing, the ``SystemStats`` degradation counters,
config validation and cache-key soundness of the fault fields, and the
``degradation`` experiment.
"""

import json
import math

import pytest

from repro import NDPSystem, api
from repro.harness.experiments import degradation
from repro.harness.runner import run_plan
from repro.harness.specs import RunSpec
from repro.sim import Compute
from repro.sim.clock import core_cycles_from_ns
from repro.sim.config import ndp_2_5d
from repro.sim.network import Interconnect
from repro.sim.stats import SystemStats
from repro.sim.topo import (
    FabricPartitionedError,
    FaultPlan,
    build_topology,
    parse_fault_spec,
    parse_link_profile,
    unreachable_pairs,
)

RING4 = dict(num_units=4, cores_per_unit=4, client_cores_per_unit=3,
             topology="ring")


def run_lock(cfg, mechanism="syncron", rounds=4):
    """A small cross-unit lock workload; returns (system, makespan)."""
    system = NDPSystem(cfg, mechanism=mechanism)
    lock = system.create_syncvar(name="fault_lock")

    def worker():
        for _ in range(rounds):
            yield api.lock_acquire(lock)
            yield Compute(20)
            yield api.lock_release(lock)

    cycles = system.run_programs({c.core_id: worker() for c in system.cores})
    return system, cycles


class TestGracefulDegradation:
    def test_pristine_run_keeps_every_fault_counter_zero(self):
        system, _ = run_lock(ndp_2_5d(**RING4))
        assert system.stats.reroutes == 0
        assert system.stats.detour_bit_hops == 0
        assert system.stats.failed_link_cycles == 0
        assert not system.fault_plan

    def test_severed_ring_completes_by_rerouting(self):
        """The headline scenario: a permanent mid-run link fault on a ring
        slows the run down but never hangs or corrupts it."""
        _, pristine = run_lock(ndp_2_5d(**RING4))
        system, cycles = run_lock(
            ndp_2_5d(**RING4, fault_links=((0, 1, 50),)))
        assert cycles > pristine
        assert system.stats.reroutes > 0
        assert system.stats.detour_bit_hops > 0
        # the permanent fault is charged up to the end of the run.
        assert system.stats.failed_link_cycles >= cycles - 50

    def test_uniform_link_profile_is_bit_identical(self):
        """A profile listing every channel at the global values is the
        same machine; timing and traffic must not move by a cycle."""
        base = ndp_2_5d(**RING4)
        channels = build_topology(base).channels()
        uniform = ndp_2_5d(**RING4, link_profile=tuple(
            (src, dst, base.link_bandwidth_gbps, base.link_latency_ns)
            for src, dst in channels
        ))
        ref_sys, ref_cycles = run_lock(base)
        sys_, cycles = run_lock(uniform)
        assert cycles == ref_cycles
        assert sys_.stats.link_bit_hops == ref_sys.stats.link_bit_hops
        assert sys_.stats.bytes_across_units == ref_sys.stats.bytes_across_units
        assert sys_.stats.reroutes == 0

    def test_explicit_partition_fails_loudly(self):
        # cutting all four channels touching unit 1 isolates it; the run
        # must raise at injection time, never hang.
        cut = ((0, 1, 100), (1, 0, 100), (1, 2, 100), (2, 1, 100))
        with pytest.raises(FabricPartitionedError):
            run_lock(ndp_2_5d(**RING4, fault_links=cut))


class TestInterconnectFaults:
    def make(self, **overrides):
        cfg = ndp_2_5d(num_units=8, topology="ring", **overrides)
        stats = SystemStats()
        return Interconnect(cfg, stats), stats

    def test_reroute_takes_the_surviving_path(self):
        inter, _ = self.make()
        assert inter.remote_hops(0, 1) == 1
        inter.fail_link((0, 1), 0)
        assert inter.remote_hops(0, 1) == 7  # all the way around
        assert inter.remote_hops(1, 0) == 1  # the reverse channel survives

    def test_reroutes_counted_once_per_pair_per_fault_epoch(self):
        inter, stats = self.make()
        inter.fail_link((0, 1), 0)
        inter.transfer_latency(0, 1, 10, 64)
        inter.transfer_latency(0, 1, 20, 64)
        assert stats.reroutes == 1  # memoized within the epoch
        inter.fail_link((4, 5), 100)  # new epoch: routes re-resolve
        inter.transfer_latency(0, 1, 110, 64)
        assert stats.reroutes == 2

    def test_partition_raises_at_injection_time(self):
        inter, _ = self.make()
        inter.fail_link((0, 1), 0)
        inter.fail_link((1, 0), 0)  # unit 1 still talks via (1, 2)/(2, 1)
        with pytest.raises(FabricPartitionedError):
            inter.fail_link((1, 2), 0)  # now unit 1 cannot send at all

    def test_downtime_accounting(self):
        inter, stats = self.make()
        inter.fail_link((0, 1), 100)
        inter.fail_link((2, 3), 1000)
        inter.finalize_faults(1500)
        assert stats.failed_link_cycles == 1400 + 500
        inter.finalize_faults(1500)  # idempotent at a fixed instant
        assert stats.failed_link_cycles == 1900

    def test_detour_bits_are_charged_on_top_of_route_bits(self):
        inter, stats = self.make()
        inter.fail_link((0, 1), 0)
        inter.transfer_latency(0, 1, 10, 64)
        # 7-hop detour vs 1-hop pristine: 6 extra hops of 64 bytes.
        assert stats.detour_bit_hops == 64 * 8 * 6
        assert stats.link_bit_hops == 64 * 8 * 7


class TestLinkProfile:
    def test_profile_shifts_timing_by_the_predicted_delta(self):
        cfg = ndp_2_5d(num_units=4)  # all_to_all: (0, 1) is private
        base = Interconnect(cfg, SystemStats()).transfer_latency(0, 1, 0, 64)
        slow = ndp_2_5d(num_units=4, link_profile=((0, 1, 1.28, 80.0),))
        profiled = Interconnect(slow, SystemStats()).transfer_latency(0, 1, 0, 64)
        expected = (
            math.ceil(64 / (1.28 / 2.5)) - math.ceil(64 / cfg.link_bytes_per_cycle)
            + core_cycles_from_ns(80.0) - cfg.link_latency_cycles
        )
        assert profiled - base == expected

    def test_partial_override_keeps_the_global_for_none(self):
        cfg = ndp_2_5d(num_units=4, link_profile=((0, 1, None, 80.0),))
        inter = Interconnect(cfg, SystemStats())
        bpc, latency = inter.link_parameters((0, 1))
        assert bpc == cfg.link_bytes_per_cycle
        assert latency == core_cycles_from_ns(80.0)
        # unlisted channels use the globals entirely.
        assert inter.link_parameters((2, 3)) == (
            cfg.link_bytes_per_cycle, cfg.link_latency_cycles)

    def test_profile_for_a_nonexistent_channel_is_rejected(self):
        # the ring has no direct (0, 2) channel.
        cfg = ndp_2_5d(**RING4, link_profile=((0, 2, 6.4, None),))
        with pytest.raises(ValueError, match=r"channel \(0, 2\) does not "
                                             "exist in the 'ring' fabric"):
            cfg.validate()

    def test_validate_rejects_malformed_profiles(self):
        with pytest.raises(ValueError):
            ndp_2_5d(link_profile=((0, 1, 0.0, None),)).validate()  # gbps<=0
        with pytest.raises(ValueError):
            ndp_2_5d(link_profile=((0, 1, None, None),)).validate()  # no-op
        with pytest.raises(ValueError):
            ndp_2_5d(link_profile=((0, 0, 6.4, None),)).validate()  # loop


class TestFaultPlan:
    def test_rate_derived_plan_is_deterministic(self):
        cfg = ndp_2_5d(num_units=8, topology="ring",
                       fault_link_rate=0.25, fault_seed=7)
        topo = build_topology(cfg)
        assert (FaultPlan.from_config(cfg, topo)
                == FaultPlan.from_config(cfg, topo))
        other = ndp_2_5d(num_units=8, topology="ring",
                         fault_link_rate=0.25, fault_seed=8)
        assert (FaultPlan.from_config(other, topo)
                != FaultPlan.from_config(cfg, topo))

    def test_default_config_yields_the_empty_plan(self):
        cfg = ndp_2_5d()
        assert not FaultPlan.from_config(cfg, build_topology(cfg))

    def test_connectivity_guard_never_partitions(self):
        # 90% severity on a ring would cut it apart; the guard drops the
        # partitioning draws and reports them in `skipped`.
        cfg = ndp_2_5d(num_units=8, topology="ring", fault_link_rate=0.9,
                       fault_seed=3)
        topo = build_topology(cfg)
        plan = FaultPlan.from_config(cfg, topo)
        assert plan.skipped
        dead = {e.channel for e in plan.events}
        assert dead  # the fabric still degrades...
        assert not unreachable_pairs(topo, dead)  # ...but never splits

    def test_guarded_plan_survives_a_full_run(self):
        system, cycles = run_lock(ndp_2_5d(
            **RING4, fault_link_rate=0.5, fault_seed=2,
            fault_window_cycles=2_000))
        assert cycles > 0
        assert system.interconnect.dead_channels  # faults really landed

    def test_explicit_fault_on_a_nonexistent_channel_rejected(self):
        cfg = ndp_2_5d(**RING4, fault_links=((0, 2, 10),))
        with pytest.raises(ValueError, match=r"channel \(0, 2\) does not "
                                             "exist in the 'ring' fabric"):
            cfg.validate()
        # planning rejects it too, before anything simulates.
        with pytest.raises(ValueError, match="does not exist"):
            RunSpec.make("primitive", "syncron",
                         args={"primitive": "lock"},
                         overrides={**RING4, "fault_links": ((0, 2, 10),)})


class TestSpecGrammars:
    def test_fault_spec_clauses(self):
        assert parse_fault_spec("0>1@100") == {
            "fault_links": ((0, 1, 100),)}
        assert parse_fault_spec("2-3@50") == {
            "fault_links": ((2, 3, 50), (3, 2, 50))}
        assert parse_fault_spec("rate=0.1, seed=7, window=1000") == {
            "fault_link_rate": 0.1, "fault_seed": 7,
            "fault_window_cycles": 1000,
        }

    # the last four name fault kinds the simulator does not implement:
    # unit faults, transient link faults and rate-derived transients.
    @pytest.mark.parametrize("bad", ["", "0>@", "1>2", "rate=x", "unit:@5",
                                     "unit:1@200", "0>1@100+500",
                                     "transient=0.05", "repair=200"])
    def test_fault_spec_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_fault_spec(bad)

    def test_link_profile_clauses(self):
        assert parse_link_profile("0>1=6.4:80") == ((0, 1, 6.4, 80.0),)
        assert parse_link_profile("0-1=12.8") == (
            (0, 1, 12.8, None), (1, 0, 12.8, None))
        assert parse_link_profile("1>0=:100") == ((1, 0, None, 100.0),)

    @pytest.mark.parametrize("bad", ["", "0>1=", "0=1", "a>b=1"])
    def test_link_profile_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_link_profile(bad)


class TestConfigAndCacheKeys:
    def test_fault_links_are_src_dst_at_triples(self):
        cfg = ndp_2_5d(fault_links=[[0, 1, 100]])
        assert cfg.fault_links == ((0, 1, 100),)
        assert cfg == ndp_2_5d(fault_links=((0, 1, 100),))
        with pytest.raises(ValueError, match=r"\(src, dst, at_cycle\)"):
            ndp_2_5d(fault_links=((0, 1, 100, 500),))

    def test_round_trip_preserves_every_fault_field(self):
        cfg = ndp_2_5d(
            link_profile=((0, 1, 6.4, 80.0), (1, 0, None, 100.0)),
            fault_seed=9, fault_links=((0, 1, 100),), fault_link_rate=0.1,
            fault_window_cycles=5000,
        )
        cfg.validate()
        payload = json.loads(json.dumps(cfg.as_dict()))
        fault_fields = ("link_profile", "fault_seed", "fault_links",
                        "fault_link_rate", "fault_window_cycles")
        assert ndp_2_5d(**{name: payload[name]
                           for name in fault_fields}) == cfg
        assert cfg.as_dict() != ndp_2_5d().as_dict()

    def test_aliases_hit_the_same_cache_entry(self):
        base = dict(args={"primitive": "lock", "interval": 100, "rounds": 2})
        assert (RunSpec.make("primitive", "syncron", **base,
                             overrides={"fault_rate": 0.1}).cache_key()
                == RunSpec.make("primitive", "syncron", **base,
                                overrides={"fault_link_rate": 0.1}).cache_key())

    def test_fault_fields_split_the_cache_key(self):
        base = dict(args={"primitive": "lock", "interval": 100, "rounds": 2})
        plain = RunSpec.make("primitive", "syncron", **base)
        faulted = RunSpec.make(
            "primitive", "syncron", **base,
            overrides={"fault_links": ((0, 1, 100),)})
        reseeded = RunSpec.make(
            "primitive", "syncron", **base,
            overrides={"fault_link_rate": 0.1, "fault_seed": 5})
        assert len({plain.cache_key(), faulted.cache_key(),
                    reseeded.cache_key()}) == 3


class TestDegradationExperiment:
    def test_smoke_rows_and_counters(self):
        rows = run_plan(degradation(
            topologies=("ring",), severities=(0.25,),
            mechanisms=("central", "syncron"), num_units=4,
            rounds=2, window=4_000))
        assert [r["severity"] for r in rows] == [0.0, 0.25]
        healthy, degraded = rows
        for mech in ("central", "syncron"):
            assert healthy[mech] == 1.0
            assert healthy[f"{mech}_reroutes"] == 0
            assert degraded[mech] >= 1.0
            assert degraded[f"{mech}_reroutes"] > 0
            assert degraded[f"{mech}_detour_bit_hops"] > 0
        assert degraded["links_failed"] > 0
        assert degraded["hop_inflation"] > 1.0
