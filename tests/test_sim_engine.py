"""Unit tests for the discrete-event kernel (repro.sim.engine)."""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.sanitizer import AccessRecorder
from repro.sim.engine import SimulationError, Simulator
from repro.testing import NullObserver


class TestSimulator:
    def test_starts_at_zero(self):
        assert Simulator().now == 0

    def test_single_event_fires_at_its_time(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [5]

    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        for delay in (30, 10, 20):
            sim.schedule(delay, lambda d=delay: order.append(d))
        sim.run()
        assert order == [10, 20, 30]

    def test_same_time_events_fire_in_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in range(5):
            sim.schedule(7, lambda t=tag: order.append(t))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_into_past_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_raises(self):
        sim = Simulator()
        sim.schedule(10, lambda: sim.schedule_at(3, lambda: None))
        with pytest.raises(SimulationError):
            sim.run()

    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        fired = []
        sim.schedule(5, lambda: fired.append(5))
        sim.schedule(50, lambda: fired.append(50))
        sim.run(until=10)
        assert fired == [5]
        assert sim.now == 10
        assert sim.pending_events == 1

    def test_event_at_exact_until_still_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.run(until=10)
        assert fired == [10]

    def test_max_events_guards_livelock(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1, reschedule)

        sim.schedule(0, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_nested_scheduling_from_callbacks(self):
        sim = Simulator()
        order = []

        def outer():
            order.append(("outer", sim.now))
            sim.schedule(3, inner)

        def inner():
            order.append(("inner", sim.now))

        sim.schedule(2, outer)
        sim.run()
        assert order == [("outer", 2), ("inner", 5)]

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1, lambda: None)
        sim.run()
        assert sim.events_processed == 4

    def test_profile_and_sanitizer_observe_together(self):
        sim = Simulator()
        observer = NullObserver()
        sim._observers.append(observer)
        recorder = sim.enable_sanitizer(AccessRecorder())
        for i in range(50):
            sim.schedule(i % 7, lambda: None)
        sim.run()
        assert observer.events == 50
        assert sim.wall_seconds > 0
        assert recorder.events_observed == 50

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=50))
    def test_clock_is_monotonic_for_any_schedule(self, delays):
        sim = Simulator()
        seen = []
        for delay in delays:
            sim.schedule(delay, lambda: seen.append(sim.now))
        sim.run()
        assert seen == sorted(seen)
        assert sim.now == max(delays)
