"""The interconnect-topology subsystem: routing, contention, accounting.

Covers the :mod:`repro.sim.topo` fabrics (shortest paths, deterministic
tie-breaking, shape resolution), the routed
:class:`~repro.sim.network.Interconnect` (all-to-all equivalence with the
hand-composed pre-topology pipeline, multi-hop distance, shared-channel
contention, byte conservation), :class:`~repro.sim.network.Link` edge
cases, the config threading (validate / round-trip / cache keys), the
``topo_sensitivity`` experiment, and the ``sweep --dry-run`` CLI.
"""

import json
import math
import warnings

import pytest

from repro.cli import main as cli_main
from repro.harness.experiments import topo_sensitivity
from repro.harness.runner import probe_specs, run_plan
from repro.harness.specs import RunSpec
from repro.sim.config import ndp_2_5d, ndp_mesh
from repro.sim.network import Crossbar, Interconnect, Link
from repro.sim.stats import SystemStats
from repro.sim.topo import (
    TOPOLOGIES,
    AllToAll,
    Mesh2D,
    Ring,
    Torus2D,
    build_topology,
    mesh_shape,
)


def assert_route_chains(topo, src, dst):
    """A route must be a contiguous channel chain from src to dst."""
    route = topo.route(src, dst)
    if src == dst:
        assert route == ()
        return route
    assert route[0][0] == src
    assert route[-1][1] == dst
    for (_, arrive), (depart, _) in zip(route, route[1:]):
        assert arrive == depart
    return route


class TestMeshShape:
    def test_auto_shape_is_squarest_factorization(self):
        assert mesh_shape(16) == (4, 4)
        assert mesh_shape(12) == (3, 4)
        assert mesh_shape(2) == (1, 2)

    def test_prime_unit_counts_warn_and_degrade_to_a_line(self):
        with pytest.warns(RuntimeWarning, match="prime"):
            assert mesh_shape(7) == (1, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # composites stay silent
            assert mesh_shape(12) == (3, 4)
            assert mesh_shape(2) == (1, 2)  # trivially a line, no surprise

    def test_explicit_rows(self):
        assert mesh_shape(12, rows=2) == (2, 6)

    def test_invalid_rows_rejected(self):
        with pytest.raises(ValueError):
            mesh_shape(12, rows=5)
        with pytest.raises(ValueError):
            mesh_shape(12, rows=-1)


class TestRouting:
    def test_all_to_all_every_pair_is_one_private_hop(self):
        topo = AllToAll(6)
        for src in range(6):
            for dst in range(6):
                if src != dst:
                    assert topo.route(src, dst) == ((src, dst),)
        assert topo.diameter() == 1
        assert len(topo.channels()) == 6 * 5

    def test_ring_takes_the_shorter_direction(self):
        topo = Ring(8)
        assert topo.hops(0, 1) == 1
        assert topo.hops(0, 7) == 1          # wraps backward
        assert topo.hops(2, 6) == 4
        assert topo.diameter() == 4
        for src in range(8):
            for dst in range(8):
                assert_route_chains(topo, src, dst)

    def test_ring_tie_breaks_clockwise(self):
        # 0 -> 4 on an 8-ring is 4 hops either way; increasing ids win.
        assert Ring(8).route(0, 4)[0] == (0, 1)

    def test_mesh_hops_are_manhattan_distance(self):
        topo = Mesh2D(16)  # 4x4
        assert (topo.rows, topo.cols) == (4, 4)
        for src in range(16):
            r0, c0 = divmod(src, 4)
            for dst in range(16):
                r1, c1 = divmod(dst, 4)
                assert topo.hops(src, dst) == abs(r0 - r1) + abs(c0 - c1)
                assert_route_chains(topo, src, dst)

    def test_mesh_routes_x_before_y(self):
        # dimension-order: 0 (0,0) -> 15 (3,3) walks the top row first.
        route = Mesh2D(16).route(0, 15)
        assert route[:3] == ((0, 1), (1, 2), (2, 3))
        assert route[3:] == ((3, 7), (7, 11), (11, 15))

    def test_torus_wraps_and_never_beats_itself(self):
        torus, mesh = Torus2D(16), Mesh2D(16)
        assert torus.hops(0, 15) == 2  # one wrap per dimension
        for src in range(16):
            for dst in range(16):
                assert torus.hops(src, dst) <= mesh.hops(src, dst)
                assert_route_chains(torus, src, dst)
        assert torus.diameter() == 4

    def test_routes_are_memoized_and_validated(self):
        topo = Ring(4)
        assert topo.route(0, 2) is topo.route(0, 2)
        with pytest.raises(ValueError):
            topo.route(0, 4)
        with pytest.raises(ValueError):
            topo.route(-1, 0)

    def test_route_bounds_checked_even_when_the_table_is_warm(self):
        # out-of-range pairs are never cached, so the check fires on every
        # call — including after routing_table() populated all valid pairs.
        topo = Ring(4)
        topo.routing_table()
        for src, dst in ((0, 4), (4, 0), (-1, 2), (2, -1)):
            with pytest.raises(ValueError):
                topo.route(src, dst)

    def test_mean_hops_orders_the_fabrics(self):
        n = 16
        a2a, ring = AllToAll(n), Ring(n)
        torus, mesh = Torus2D(n), Mesh2D(n)
        assert a2a.mean_hops() == 1.0
        assert a2a.mean_hops() <= torus.mean_hops() <= mesh.mean_hops()
        assert mesh.mean_hops() < ring.mean_hops()


class TestConfigThreading:
    def test_default_config_uses_all_to_all(self):
        cfg = ndp_2_5d()
        assert cfg.topology == "all_to_all"
        assert isinstance(build_topology(cfg), AllToAll)

    def test_build_topology_honours_field_and_shape(self):
        cfg = ndp_2_5d(num_units=12, topology="mesh2d", topo_rows=2)
        topo = build_topology(cfg)
        assert isinstance(topo, Mesh2D)
        assert (topo.rows, topo.cols) == (2, 6)

    def test_ndp_mesh_preset_is_a_4x4_grid(self):
        cfg = ndp_mesh()
        cfg.validate()
        topo = build_topology(cfg)
        assert isinstance(topo, Mesh2D)
        assert (topo.rows, topo.cols) == (4, 4)

    def test_validate_rejects_bad_topology_fields(self):
        with pytest.raises(ValueError):
            ndp_2_5d(topology="hypercube").validate()
        with pytest.raises(ValueError):
            ndp_2_5d(num_units=4, topology="mesh2d", topo_rows=3).validate()
        with pytest.raises(ValueError):
            ndp_2_5d(topo_rows=-1).validate()

    def test_round_trip_preserves_topology(self):
        cfg = ndp_2_5d(topology="torus2d", topo_rows=2, num_units=8)
        payload = json.loads(json.dumps(cfg.as_dict()))
        again = ndp_2_5d(**{name: payload[name] for name in
                            ("topology", "topo_rows", "num_units")})
        assert again == cfg

    def test_topo_rows_is_normalized_away_on_non_grid_fabrics(self):
        # rows mean nothing to a ring; the two configs describe the same
        # machine and must share a cache key.
        def key(**overrides):
            return RunSpec.make(
                "primitive", "syncron",
                args={"primitive": "lock", "interval": 100, "rounds": 2},
                overrides=overrides).cache_key()

        assert ndp_2_5d(topology="ring", topo_rows=4) == ndp_2_5d(
            topology="ring")
        assert (key(topology="ring", topo_rows=4) == key(topology="ring"))
        # on a grid they change the shape, so they must split the key.
        assert (key(num_units=12, topology="mesh2d", topo_rows=2)
                != key(num_units=12, topology="mesh2d"))

    def test_stable_hash_and_cache_key_cover_topology(self):
        assert ndp_2_5d(topology="ring").as_dict() != ndp_2_5d().as_dict()
        base = dict(args={"primitive": "lock", "interval": 100, "rounds": 2})
        plain = RunSpec.make("primitive", "syncron", **base)
        ring = RunSpec.make("primitive", "syncron", **base,
                            overrides={"topology": "ring"})
        aliased = RunSpec.make("primitive", "syncron", **base,
                               overrides={"topo": "ring"})
        assert ring.cache_key() != plain.cache_key()
        assert aliased.cache_key() == ring.cache_key()


class TestRoutedInterconnect:
    def test_all_to_all_matches_hand_composed_pipeline(self):
        """Routed default == the pre-topology xbar -> link -> xbar model."""
        cfg = ndp_2_5d()
        routed = Interconnect(cfg, SystemStats())
        src_xbar = Crossbar(cfg, 0)
        dst_xbar = Crossbar(cfg, 1)
        link = Link(cfg)
        base = cfg.arbiter_cycles + cfg.local_hops * cfg.hop_cycles
        for now in (0, 10, 480, 481, 2000):
            first = base + src_xbar.queue_wait(now, 64)
            second = link.reserve(now + first, 64)
            third = base + dst_xbar.queue_wait(now + first + second, 64)
            assert routed.transfer_latency(0, 1, now, 64) == first + second + third

    def test_distance_costs_cycles_on_a_ring(self):
        cfg = ndp_2_5d(num_units=8, topology="ring")
        near = Interconnect(cfg, SystemStats()).transfer_latency(0, 1, 0, 64)
        far = Interconnect(cfg, SystemStats()).transfer_latency(0, 4, 0, 64)
        # 4 hops pay ~4x the propagation+serialization of 1 hop.
        assert far > near + 2 * cfg.link_latency_cycles

    def test_shared_channel_contention_emerges(self):
        # ring routes 0->2 and 1->2 share the physical channel (1, 2).
        cfg = ndp_2_5d(num_units=4, topology="ring")
        quiet = Interconnect(cfg, SystemStats()).transfer_latency(1, 2, 0, 6400)
        contended = Interconnect(cfg, SystemStats())
        contended.transfer_latency(0, 2, 0, 6400)
        assert contended.transfer_latency(1, 2, 0, 6400) > quiet

    def test_all_to_all_never_contends_across_pairs(self):
        # disjoint pairs keep private channels: same latency with or
        # without background traffic between other units.
        cfg = ndp_2_5d(num_units=4)
        quiet = Interconnect(cfg, SystemStats()).transfer_latency(2, 3, 0, 6400)
        busy = Interconnect(cfg, SystemStats())
        busy.transfer_latency(0, 1, 0, 6400)
        assert busy.transfer_latency(2, 3, 0, 6400) == quiet

    @pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
    def test_byte_conservation_under_every_topology(self, topology):
        """Bytes injected == bytes accounted, however many links a route has."""
        cfg = ndp_2_5d(num_units=8, topology=topology)
        stats = SystemStats()
        inter = Interconnect(cfg, stats)
        transfers = [(0, 5, 64), (3, 3, 32), (7, 1, 128), (2, 6, 64),
                     (4, 4, 8), (6, 0, 256), (5, 2, 0)]
        local_bytes = remote_bytes = expected_link_bits = 0
        for now, (src, dst, nbytes) in enumerate(transfers):
            inter.transfer_latency(src, dst, now * 1000, nbytes)
            if src == dst:
                local_bytes += nbytes
            else:
                remote_bytes += nbytes
                expected_link_bits += nbytes * 8 * inter.remote_hops(src, dst)
        assert stats.bytes_across_units == remote_bytes
        # a remote transfer crosses exactly two crossbars (src + dst).
        assert stats.bytes_inside_units == local_bytes + 2 * remote_bytes
        assert stats.link_bit_hops == expected_link_bits
        assert stats.link_bit_hops >= stats.bytes_across_units * 8

    def test_remote_hops_reports_route_length(self):
        cfg = ndp_2_5d(num_units=8, topology="ring")
        inter = Interconnect(cfg, SystemStats())
        assert inter.remote_hops(0, 4) == 4
        assert inter.remote_hops(0, 0) == 0


class TestLinkEdgeCases:
    def test_zero_byte_transfer_still_occupies_one_cycle(self):
        cfg = ndp_2_5d()
        link = Link(cfg)
        assert link.reserve(0, 0) == 1 + cfg.link_latency_cycles
        # ... and that cycle delays a back-to-back packet by exactly 1.
        assert link.reserve(0, 0) == 2 + cfg.link_latency_cycles
        # a zero-byte packet moves no payload across the fabric.
        stats = SystemStats()
        Interconnect(cfg, stats).transfer_latency(0, 1, 0, 0)
        assert stats.bytes_across_units == 0
        assert stats.link_bit_hops == 0

    def test_back_to_back_reservations_serialize_exactly(self):
        cfg = ndp_2_5d()
        link = Link(cfg)
        serialization = int(math.ceil(6400 / cfg.link_bytes_per_cycle))
        assert link.reserve(0, 6400) == serialization + cfg.link_latency_cycles
        assert link.reserve(0, 6400) == 2 * serialization + cfg.link_latency_cycles

    def test_idle_gap_earns_no_transfer_credit(self):
        # occupancy never runs backwards: after a long idle gap the next
        # packet pays exactly one serialization + latency, and back-to-back
        # packets at that same instant queue behind it — the stale
        # _next_free must not hand out negative waiting time.
        cfg = ndp_2_5d()
        link = Link(cfg)
        serialization = int(math.ceil(64 / cfg.link_bytes_per_cycle))
        exact = serialization + cfg.link_latency_cycles
        assert link.reserve(0, 64) == exact
        assert link.reserve(10_000, 64) == exact
        assert link.reserve(10_000, 64) == serialization + exact

    def test_reserve_is_timing_only(self):
        # the fabric books traffic per transfer; a bare reservation on one
        # of its links charges nothing.
        stats = SystemStats()
        inter = Interconnect(ndp_2_5d(), stats)
        inter._routed(0, 1)[0][0].reserve(0, 64)
        assert stats.as_dict() == SystemStats().as_dict()


class TestTopoSensitivity:
    def test_all_to_all_is_the_unit_baseline(self):
        rows = run_plan(topo_sensitivity(
            unit_steps=(2, 4), mechanisms=("syncron",), rounds=2))
        assert len(rows) == 2 * 4  # unit steps x fabrics
        by_key = {(r["units"], r["topology"]): r for r in rows}
        for units in (2, 4):
            assert by_key[(units, "all_to_all")]["syncron"] == 1.0
        # at 4 units the ring already pays multi-hop routes.
        assert by_key[(4, "ring")]["syncron"] >= 1.0

    def test_routed_fabrics_are_no_faster_at_16_units(self):
        rows = run_plan(topo_sensitivity(
            topologies=("all_to_all", "ring", "mesh2d"),
            unit_steps=(16,), mechanisms=("syncron",), rounds=1))
        by_topo = {r["topology"]: r for r in rows}
        assert by_topo["ring"]["syncron"] >= 1.0
        assert by_topo["mesh2d"]["syncron"] >= 1.0
        assert (by_topo["ring"]["syncron_cycles"]
                >= by_topo["all_to_all"]["syncron_cycles"])


class TestSweepDryRun:
    ARGS = ["run", "sweep", "--arg", "workloads=lock",
            "--arg", "mechanisms=syncron", "--arg", "rounds=1",
            "--arg", "interval=120", "--vary", "topology=all_to_all,ring"]

    def test_probe_specs_classifies_without_executing(self):
        spec = RunSpec.make("primitive", "syncron",
                            args={"primitive": "lock", "interval": 130,
                                  "rounds": 1})
        assert probe_specs([spec, spec], cache=False) == [
            "simulate", "duplicate",
        ]

    def test_dry_run_prints_matrix_and_counts(self, capsys):
        assert cli_main([*self.ARGS, "--dry-run"]) == 0
        out = capsys.readouterr()
        assert "topology=ring" in out.out
        assert "2 runs: 0 cached, 2 to simulate, 0 deduplicated" in out.err

    def test_dry_run_sees_warm_cache(self, capsys):
        assert cli_main(self.ARGS) == 0  # real run populates the cache
        capsys.readouterr()
        assert cli_main([*self.ARGS, "--dry-run"]) == 0
        out = capsys.readouterr()
        assert "2 runs: 2 cached, 0 to simulate" in out.err
