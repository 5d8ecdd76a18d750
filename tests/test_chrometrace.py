"""Chrome-trace export: valid Trace Event JSON with faithful content."""

import json

import pytest

from repro.core import api
from repro.sim.chrometrace import trace_events, write_chrome_trace
from repro.sim.program import Compute
from repro.sim.trace import MessageTracer

from repro.testing import build_system


def traced_run(tiny_config, mechanism="syncron"):
    system = build_system(tiny_config, mechanism)
    tracer = MessageTracer(system)
    lock = system.create_syncvar(unit=1, name="Lx")

    def worker():
        for _ in range(3):
            yield api.lock_acquire(lock)
            yield Compute(10)
            yield api.lock_release(lock)

    system.run_programs({c.core_id: worker() for c in system.cores})
    return system, tracer


class TestTraceEvents:
    def test_every_message_becomes_a_duration_event(self, tiny_config):
        system, tracer = traced_run(tiny_config)
        events = trace_events(system, tracer, include_cores=False)
        durations = [e for e in events if e.get("ph") == "X"]
        assert len(durations) == len(tracer.records)

    def test_engine_tracks_are_named(self, tiny_config):
        system, tracer = traced_run(tiny_config)
        events = trace_events(system, tracer)
        names = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "thread_name" and e["pid"] == 1
        }
        assert "SE0" in names and "SE1" in names

    def test_core_spans_included(self, tiny_config):
        system, tracer = traced_run(tiny_config)
        events = trace_events(system, tracer, include_cores=True)
        spans = [e for e in events if e.get("cat") == "execution"]
        assert len(spans) == len(system.cores)
        for span in spans:
            assert span["dur"] > 0
            assert span["args"]["sync_requests"] == 6  # 3 acquires+releases

    def test_categories_mark_hierarchy(self, tiny_config):
        system, tracer = traced_run(tiny_config)
        events = trace_events(system, tracer, include_cores=False)
        categories = {e.get("cat") for e in events if e.get("ph") == "X"}
        # Remote-unit cores force global messages to the master.
        assert "local" in categories and "global" in categories

    def test_timestamps_in_nanoseconds(self, tiny_config):
        system, tracer = traced_run(tiny_config)
        events = trace_events(system, tracer, include_cores=False)
        last = max(e["ts"] for e in events if e.get("ph") == "X")
        # 2.5 GHz: simulated ns = cycles / 2.5.
        assert last <= system.sim.now / 2.5 + 1e-9

    def test_overflow_category(self, tiny_config):
        """Overflow opcodes appear when a *local* (non-master) SE's ST is
        full and it must redirect its cores' requests to the Master SE."""
        config = tiny_config.with_(st_entries=1)
        system = build_system(config, "syncron")
        tracer = MessageTracer(system)
        local_blocker = system.create_syncvar(unit=1, name="b1")
        victim = system.create_syncvar(unit=0, name="v")
        unit1 = system.cores_in_unit(1)

        def holder():
            # Occupies unit 1's single ST entry for the whole run.
            yield api.lock_acquire(local_blocker)
            yield Compute(20000)
            yield api.lock_release(local_blocker)

        def worker():
            for _ in range(2):
                yield api.lock_acquire(victim)
                yield api.lock_release(victim)

        programs = {unit1[0].core_id: holder()}
        for core in unit1[1:]:
            programs[core.core_id] = worker()
        system.run_programs(programs)
        events = trace_events(system, tracer, include_cores=False)
        categories = {e.get("cat") for e in events if e.get("ph") == "X"}
        assert "overflow" in categories


class TestWriteChromeTrace:
    def test_written_file_is_loadable_json(self, tiny_config, tmp_path):
        system, tracer = traced_run(tiny_config)
        path = tmp_path / "run.json"
        count = write_chrome_trace(str(path), system, tracer,
                                   metadata={"experiment": "unit-test"})
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count
        assert document["otherData"]["mechanism"] == "syncron"
        assert document["otherData"]["experiment"] == "unit-test"
        assert document["otherData"]["cores"] == len(system.cores)

    def test_works_on_server_mechanisms(self, tiny_config, tmp_path):
        system, tracer = traced_run(tiny_config, mechanism="central")
        path = tmp_path / "central.json"
        count = write_chrome_trace(str(path), system, tracer)
        assert count > 0
        document = json.loads(path.read_text())
        assert document["otherData"]["mechanism"] == "central"


def spin_run(tiny_config):
    """One rmw_spin lock workload whose polls exercise the wake log."""
    system = build_system(tiny_config, "rmw_spin")
    tracer = MessageTracer(system)
    lock = system.create_syncvar(unit=1, name="Lx")

    def worker():
        for _ in range(4):
            yield api.lock_acquire(lock)
            yield Compute(120)
            yield api.lock_release(lock)

    system.run_programs({c.core_id: worker() for c in system.cores})
    return system, tracer


class TestKernelTrack:
    """S1: counter tracks + instant events for the elision kernel."""

    def test_no_wake_log_no_kernel_track(self, tiny_config):
        from repro.sim.chrometrace import _kernel_events

        system = build_system(tiny_config, "syncron")
        assert system.sim.wake_log is None
        assert _kernel_events(system) == []

    def test_wake_instants_and_counter_samples(self, tiny_config):
        system, tracer = spin_run(tiny_config)
        assert system.sim.elided_events > 0  # the run actually elided
        events = trace_events(system, tracer, include_cores=False)
        kernel = [e for e in events if e.get("pid") == 3]
        instants = [e for e in kernel if e.get("ph") == "i"]
        counters = [e for e in kernel if e.get("ph") == "C"]
        assert instants, "signal wakes must appear as instant events"
        # one counter sample per wake plus the final end-of-run sample
        assert len(counters) == len(instants) + 1
        for inst in instants:
            assert inst["cat"] == "kernel"
            assert inst["args"]["woken"] >= 1
            assert inst["args"]["channel"]
        # counter samples are monotonically non-decreasing and end at the
        # simulator's own totals
        processed = [c["args"]["events_processed"] for c in counters]
        elided = [c["args"]["elided_events"] for c in counters]
        assert processed == sorted(processed)
        assert elided == sorted(elided)
        assert processed[-1] == system.sim.events_processed
        assert elided[-1] == system.sim.elided_events
        assert counters[-1]["ts"] == pytest.approx(system.sim.now / 2.5)

    def test_counter_samples_are_live_not_final(self, tiny_config):
        """Mid-run samples must reflect progress *at the wake*, not the
        end-of-run totals (the instrumented drain commits per-cycle)."""
        system, tracer = spin_run(tiny_config)
        events = trace_events(system, tracer, include_cores=False)
        counters = [e for e in events
                    if e.get("pid") == 3 and e.get("ph") == "C"]
        assert counters[0]["args"]["events_processed"] \
            < counters[-1]["args"]["events_processed"]
