"""Runtime determinism sanitizer: the synthetic ordering-hazard workload
must be flagged (both write-write and read-write), causally-related
same-cycle events and allowlisted rendezvous state must not be, and every
real synchronization mechanism must come out hazard-free.
"""

from __future__ import annotations

import pytest

from repro.analysis.sanitizer import (
    AccessRecorder,
    SanitizerSession,
    current_session,
    note_read,
    sanitize_session,
    sanitizer_active,
)
from repro.sim.engine import Simulator
from repro.sim.system import NDPSystem
from repro.testing import ALL_MECHANISMS, SPIN_MECHANISMS
from repro.workloads import PrimitiveMicrobench
from repro.workloads.base import run_workload
from repro.workloads.corun import CorunWorkload, TenantSpec


class Mailbox:
    """Deliberately order-sensitive: ``slot`` keeps the *last* writer's
    value, so two same-cycle unordered writes are a real hazard."""

    def __init__(self):
        self.slot = "empty"
        self.seen = "nothing"

    def put_a(self):
        self.slot = "a"

    def put_b(self):
        self.slot = "b"

    def peek(self):
        note_read(self, "slot")
        self.seen = self.slot


class Accumulator:
    """Commutative numeric accumulation: same-cycle increments are safe."""

    def __init__(self):
        self.total = 0

    def add(self, amount):
        self.total += amount


def run_sanitized(*schedules):
    """Run a fresh simulator under a session; returns the session."""
    with sanitize_session() as session:
        sim = Simulator()
        sim.enable_sanitizer()
        for time, callback, *args in schedules:
            sim.schedule_at(time, callback, *args)
        sim.run()
    return session


# ----------------------------------------------------------------------
# The synthetic ordering-hazard workload (acceptance criterion)
# ----------------------------------------------------------------------
class TestSyntheticHazards:
    def test_same_cycle_unordered_writes_flagged(self):
        box = Mailbox()
        session = run_sanitized((5, box.put_a), (5, box.put_b))
        kinds = [h.kind for h in session.hazards]
        assert kinds == ["write-write"]
        hazard = session.hazards[0]
        assert hazard.cycle == 5
        assert hazard.attr == "slot"
        assert hazard.obj.startswith("Mailbox#")

    def test_read_then_same_cycle_write_flagged(self):
        box = Mailbox()
        session = run_sanitized((9, box.peek), (9, box.put_a))
        assert [h.kind for h in session.hazards] == ["read-write"]
        assert session.hazards[0].attr == "slot"

    def test_both_hazard_kinds_in_one_run(self):
        box = Mailbox()
        session = run_sanitized(
            (5, box.put_a), (5, box.put_b),   # WW at cycle 5
            (9, box.peek), (9, box.put_a),    # RW at cycle 9
        )
        assert sorted(h.kind for h in session.hazards) == [
            "read-write", "write-write",
        ]
        assert session.events_observed == 4
        assert "2 hazard(s)" in session.report()

    def test_writes_on_different_cycles_are_ordered(self):
        box = Mailbox()
        session = run_sanitized((5, box.put_a), (6, box.put_b))
        assert session.hazards == []

    def test_same_cycle_writes_to_different_objects_fine(self):
        a, b = Mailbox(), Mailbox()
        session = run_sanitized((5, a.put_a), (5, b.put_b))
        assert session.hazards == []

    def test_numeric_accumulation_is_commutative(self):
        acc = Accumulator()
        session = run_sanitized((5, acc.add, 1), (5, acc.add, 2))
        assert session.hazards == []
        assert acc.total == 3

    def test_hazard_serialization(self):
        box = Mailbox()
        session = run_sanitized((5, box.put_a), (5, box.put_b))
        payload = session.hazards[0].as_dict()
        assert payload["kind"] == "write-write"
        assert payload["cycle"] == 5
        assert len(payload["events"]) == 2
        assert "write-write" in session.hazards[0].describe()


# ----------------------------------------------------------------------
# Causal ordering within a cycle
# ----------------------------------------------------------------------
class TestCausality:
    def test_descendant_write_is_ordered(self):
        """An event that schedules a same-cycle follow-up IS ordered with
        it — request/continuation chains must not be flagged."""
        sim_holder = {}

        class Chained:
            def __init__(self):
                self.slot = "empty"

            def first(self):
                self.slot = "first"
                sim_holder["sim"].schedule(0, self.second)

            def second(self):
                self.slot = "second"

        with sanitize_session() as session:
            sim = Simulator()
            sim_holder["sim"] = sim
            sim.enable_sanitizer()
            obj = Chained()
            sim.schedule_at(5, obj.first)
            sim.run()
        assert session.hazards == []
        assert obj.slot == "second"

    def test_unrelated_sibling_of_descendant_still_flagged(self):
        """Causality is per-chain: a third independent writer in the same
        cycle still conflicts with the chain."""
        sim_holder = {}

        class Chained:
            def __init__(self):
                self.slot = "empty"

            def first(self):
                self.slot = "first"
                sim_holder["sim"].schedule(0, self.second)

            def second(self):
                self.slot = "second"

            def intruder(self):
                self.slot = "intruder"

        with sanitize_session() as session:
            sim = Simulator()
            sim_holder["sim"] = sim
            sim.enable_sanitizer()
            obj = Chained()
            sim.schedule_at(5, obj.first)
            sim.schedule_at(5, obj.intruder)
            sim.run()
        assert [h.kind for h in session.hazards] == ["write-write"]


# ----------------------------------------------------------------------
# Allowlist
# ----------------------------------------------------------------------
class TestAllowlist:
    def test_exact_entry_suppresses(self):
        box = Mailbox()
        with sanitize_session(allowlist={("Mailbox", "slot")}) as session:
            sim = Simulator()
            sim.enable_sanitizer()
            sim.schedule_at(5, box.put_a)
            sim.schedule_at(5, box.put_b)
            sim.run()
        assert session.hazards == []

    def test_base_class_entry_covers_subclass(self):
        class FancyMailbox(Mailbox):
            pass

        box = FancyMailbox()
        with sanitize_session(allowlist={("Mailbox", "slot")}) as session:
            sim = Simulator()
            sim.enable_sanitizer()
            sim.schedule_at(5, box.put_a)
            sim.schedule_at(5, box.put_b)
            sim.run()
        assert session.hazards == []

    def test_entry_for_other_attr_does_not_suppress(self):
        box = Mailbox()
        with sanitize_session(allowlist={("Mailbox", "seen")}) as session:
            sim = Simulator()
            sim.enable_sanitizer()
            sim.schedule_at(5, box.put_a)
            sim.schedule_at(5, box.put_b)
            sim.run()
        assert len(session.hazards) == 1


# ----------------------------------------------------------------------
# Session plumbing
# ----------------------------------------------------------------------
class TestSession:
    def test_session_globals(self):
        assert not sanitizer_active()
        assert current_session() is None
        with sanitize_session() as session:
            assert sanitizer_active()
            assert current_session() is session
        assert not sanitizer_active()

    def test_nested_sessions_rejected(self):
        with sanitize_session():
            with pytest.raises(RuntimeError):
                with sanitize_session():
                    pass

    def test_notes_outside_session_are_noops(self):
        box = Mailbox()
        note_read(box, "slot")   # must not raise

    def test_standalone_recorder_without_session(self):
        """``enable_sanitizer`` works without a session for ad-hoc use."""
        sim = Simulator()
        sim.enable_sanitizer()
        assert isinstance(sim.sanitizer, AccessRecorder)
        box = Mailbox()
        sim.schedule_at(5, box.put_a)
        sim.schedule_at(5, box.put_b)
        sim.run()
        assert len(sim.sanitizer.hazards) == 1

    def test_multi_simulator_session_aggregates(self):
        with sanitize_session() as session:
            for _ in range(2):
                sim = Simulator()
                sim.enable_sanitizer()
                box = Mailbox()
                sim.schedule_at(5, box.put_a)
                sim.schedule_at(5, box.put_b)
                sim.run()
        assert len(session.recorders) == 2
        assert len(session.hazards) == 2

    def test_system_built_in_session_attaches_recorder(self, tiny_config):
        assert NDPSystem(tiny_config).sim.sanitizer is None
        with sanitize_session() as session:
            system = NDPSystem(tiny_config)
        assert isinstance(system.sim.sanitizer, AccessRecorder)
        assert session.recorders == [system.sim.sanitizer]

    def test_report_string(self):
        session = SanitizerSession()
        assert "0 hazard(s)" in session.report()

    def test_sanitized_drain_matches_plain_run(self, tiny_config):
        """Physics must be identical with and without the sanitizer."""
        plain = run_workload(
            lambda: PrimitiveMicrobench("lock", interval=10, rounds=5),
            tiny_config, "syncron")
        with sanitize_session():
            sanitized = run_workload(
                lambda: PrimitiveMicrobench("lock", interval=10, rounds=5),
                tiny_config, "syncron")
        assert sanitized.cycles == plain.cycles
        assert sanitized.operations == plain.operations


# ----------------------------------------------------------------------
# Real mechanisms are hazard-free (acceptance criterion)
# ----------------------------------------------------------------------
class TestMechanismsClean:
    # The spin baselines implement no barrier.
    @pytest.mark.parametrize("primitive,mechanism", [
        *(("lock", m) for m in ALL_MECHANISMS + SPIN_MECHANISMS),
        *(("barrier", m) for m in ALL_MECHANISMS),
    ])
    def test_microbench_hazard_free(self, tiny_config, mechanism, primitive):
        with sanitize_session() as session:
            metrics = run_workload(
                lambda: PrimitiveMicrobench(primitive, interval=10, rounds=5),
                tiny_config, mechanism)
        assert metrics.cycles > 0
        assert session.events_observed > 0
        assert session.hazards == [], "\n".join(
            h.describe() for h in session.hazards)

    # The spin baselines implement no barrier, so they co-run two locks.
    @pytest.mark.parametrize("mechanism,primitives", [
        ("syncron", ("lock", "barrier")),
        ("central", ("lock", "barrier")),
        ("rmw_spin", ("lock", "lock")),
        ("bakery", ("lock", "lock")),
    ])
    def test_two_tenant_corun_hazard_free(self, tiny_config, mechanism,
                                          primitives):
        tenants = [
            TenantSpec(f"t{i}", lambda primitive=primitive: PrimitiveMicrobench(
                primitive, interval=10, rounds=5))
            for i, primitive in enumerate(primitives)
        ]
        with sanitize_session() as session:
            metrics = run_workload(lambda: CorunWorkload(tenants),
                                   tiny_config, mechanism)
        assert metrics.stats["tenant_summary.tenants"] == 2
        assert session.events_observed > 0
        assert session.hazards == [], "\n".join(
            h.describe() for h in session.hazards)
