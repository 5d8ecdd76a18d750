"""Regression tests pinning the event-kernel contract.

The kernel was rewritten for throughput (args-based callbacks, batch drain,
``__slots__``); these tests pin the semantics the rest of the simulator
relies on so a future optimization cannot silently reorder events:

- same-timestamp events fire in insertion order, including events inserted
  *during* a same-timestamp batch;
- ``until`` / ``max_events`` semantics;
- scheduling-validation behaviour;
- exception parking around same-cycle schedules, and one firing order
  across every drain (fast, bounded, observed, stepped);
- both ``tests/`` and ``benchmarks/`` collect cleanly from the repo root
  (the seed shipped with a conftest-shadowing bug that broke all 16 test
  modules importing shared helpers).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimulationError, Simulator
from repro.testing import NullObserver

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestDeterminismContract:
    def test_same_timestamp_insertion_order_with_args(self):
        sim = Simulator()
        order = []
        for tag in range(8):
            sim.schedule(4, order.append, tag)
        sim.run()
        assert order == list(range(8))

    def test_mixed_schedule_and_schedule_at_same_timestamp(self):
        sim = Simulator()
        order = []
        sim.schedule(10, order.append, "a")
        sim.schedule_at(10, order.append, "b")
        sim.schedule(10, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_events_inserted_during_batch_keep_insertion_order(self):
        """An event scheduled at delay 0 from inside a same-cycle batch must
        run after the events already queued at that timestamp."""
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule(0, order.append, "child-of-first")

        sim.schedule(5, first)
        sim.schedule(5, order.append, "second")
        sim.run()
        assert order == ["first", "second", "child-of-first"]

    def test_interleaved_timestamps_stay_sorted(self):
        sim = Simulator()
        seen = []
        for delay in (9, 3, 7, 3, 9, 0, 7):
            sim.schedule(delay, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert sim.now == 9

    def test_run_is_identical_to_stepping(self):
        def build():
            sim = Simulator()
            log = []

            def tick(tag):
                log.append((sim.now, tag))
                if tag < 30:
                    sim.schedule((tag * 7) % 5, tick, tag + 1)

            for tag in range(3):
                sim.schedule(tag % 2, tick, tag * 100)
            return sim, log

        sim_run, log_run = build()
        sim_run.run()
        sim_step, log_step = build()
        while sim_step.step():
            pass
        assert log_run == log_step
        assert sim_run.now == sim_step.now


class TestRunBounds:
    def test_until_stops_clock_and_keeps_future_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, fired.append, 5)
        sim.schedule(50, fired.append, 50)
        sim.run(until=10)
        assert fired == [5]
        assert sim.now == 10
        assert sim.pending_events == 1
        sim.run()
        assert fired == [5, 50]

    def test_event_at_exact_until_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, 10)
        sim.run(until=10)
        assert fired == [10]

    def test_until_with_drained_queue_advances_clock_to_until(self):
        # The clock reaches ``until`` whether the queue empties before it
        # (this case) or its head is past it — previously only the latter
        # advanced, leaving run(until=t) semantics dependent on queue state.
        sim = Simulator()
        sim.schedule(4, lambda: None)
        sim.run(until=100)
        assert sim.now == 100

    def test_until_with_empty_queue_advances_clock(self):
        sim = Simulator()
        sim.run(until=37)
        assert sim.now == 37

    def test_until_in_the_past_does_not_rewind_clock(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        assert sim.now == 10
        sim.run(until=5)
        assert sim.now == 10

    def test_max_events_raises_on_livelock(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1, reschedule)

        sim.schedule(0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)
        assert sim.events_processed == 100

    def test_max_events_combined_with_until(self):
        sim = Simulator()
        fired = []
        for d in range(20):
            sim.schedule(d, fired.append, d)
        sim.run(until=9, max_events=50)
        assert fired == list(range(10))
        assert sim.now == 9


class TestSameCycleRaiser:
    """A raiser that schedules a same-cycle event, then raises.

    The fast drain detaches each bucket before running it, so the raiser's
    same-cycle schedule opens a fresh bucket; parking must put the
    un-executed tail ahead of it.  The observed drain appends to the
    running bucket instead.  Either way resuming fires ``a, b, late``.
    """

    @staticmethod
    def _run(layout, mode):
        sim = Simulator()
        if mode == "profile":
            # a no-op observer: the observed drain, as a profiler sees it.
            sim._observers.append(NullObserver())
        bounds = {"until": 20} if mode == "until" else {}
        fired = []
        raised = []

        def ok(tag):
            fired.append(tag)

        def boom():
            raised.append(sim.now)
            sim.schedule(0, ok, "late")
            raise RuntimeError("boom")

        if layout == "multi":
            # boom shares its bucket with a (before) and b (after).
            sim.schedule(5, ok, "a")
            sim.schedule(5, boom)
            sim.schedule(5, ok, "b")
            before = ["a"]
        else:
            # boom is alone in its bucket.
            sim.schedule(4, ok, "a")
            sim.schedule(4, ok, "b")
            sim.schedule(5, boom)
            before = ["a", "b"]
        with pytest.raises(RuntimeError, match="boom"):
            sim.run(**bounds)
        assert fired == before
        assert sim.events_processed == len(before) + 1
        sim.run(**bounds)
        assert fired == ["a", "b", "late"]
        assert raised == [5]
        assert sim.events_processed == 4
        assert sim.pending_events == 0

    @pytest.mark.parametrize("mode", ["run", "until", "profile"])
    @pytest.mark.parametrize("layout", ["multi", "single"])
    def test_resume_fires_tail_then_late(self, layout, mode):
        self._run(layout, mode)


#: one node of a random schedule program: (parent, delay, absolute).
_NODE = st.tuples(st.integers(0, 1000), st.integers(0, 6), st.booleans())


def _program_trace(nodes, drive):
    """Fire a random schedule tree under ``drive``; return what it saw.

    Node ``i`` hangs under an earlier node (or is a root scheduled before
    the run).  A fired node schedules its children in order, each with
    ``schedule(delay)`` or ``schedule_at(now + delay)``; delay 0 lands in
    the running timestamp.
    """
    children = {i: [] for i in range(-1, len(nodes))}
    for i, (raw, _delay, _absolute) in enumerate(nodes):
        children[raw % (i + 1) - 1].append(i)
    sim = Simulator()
    fired = []

    def push(i):
        _raw, delay, absolute = nodes[i]
        if absolute:
            sim.schedule_at(sim.now + delay, fire, i)
        else:
            sim.schedule(delay, fire, i)

    def fire(i):
        fired.append((sim.now, i))
        for child in children[i]:
            push(child)

    for root in children[-1]:
        push(root)
    drive(sim)
    assert sim.pending_events == 0
    return fired, sim.events_processed


def _drive_step(sim):
    while sim.step():
        pass


def _drive_observed(sim):
    sim._observers.append(NullObserver())
    sim.run()


class TestDrainEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_NODE, max_size=40))
    def test_every_drain_fires_the_same_program_identically(self, nodes):
        reference = _program_trace(nodes, lambda sim: sim.run())
        assert len(reference[0]) == len(nodes) == reference[1]
        for drive in (lambda sim: sim.run(until=10**9), _drive_observed,
                      _drive_step):
            assert _program_trace(nodes, drive) == reference


class TestValidation:
    def test_negative_delay_raises(self):
        with pytest.raises(SimulationError):
            Simulator().schedule(-1, lambda: None)

    def test_schedule_at_past_raises_mid_run(self):
        sim = Simulator()
        sim.schedule(10, lambda: sim.schedule_at(3, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()


class TestCollectionSmoke:
    """Both suites must collect with zero errors from the repo root — this is
    the regression test for the conftest-shadowing bug that broke the seed."""

    @pytest.mark.parametrize("target", ["tests", "benchmarks"])
    def test_collects_cleanly(self, target):
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", target, "--collect-only", "-q"],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        tail = result.stdout[-2000:] + result.stderr[-2000:]
        # pytest exits non-zero (2) on any collection error.
        assert result.returncode == 0, tail
        assert "tests collected" in result.stdout, tail
        assert "errors" not in result.stdout.splitlines()[-1], tail
