"""Event-elision kernel: wait-channels and exception parking.

Three contracts pinned here:

1. Wait-channel arithmetic — a signalled waiter wakes at exactly the cycle
   its explicit poll chain would have succeeded on, with the correct count
   of elided polls, in both kernel modes.
2. Exception parking — a callback that raises mid-bucket leaves the
   un-executed tail of the queue intact; resuming ``run`` fires each
   remaining event exactly once and never re-fires the raiser, in every
   drain mode (fast, bounded, observed, sanitized).
3. Bit-identity — every RunMetrics counter except the reserved ``kernel.*``
   effort counters is identical with ``elide_waits`` on and off, across
   primitives, structures, topologies, mechanisms, and co-runs.
"""

import pytest

from repro.analysis.sanitizer import AccessRecorder
from repro.harness.runner import execute_spec
from repro.testing import NullObserver
from repro.harness.specs import RunSpec
from repro.sim.engine import SimulationError, Simulator

# Small machine: 2 units x 3 client cores keeps even bakery scenarios fast.
SMALL = {"num_units": 2, "cores_per_unit": 4, "client_cores_per_unit": 3}


# ----------------------------------------------------------------------
# 1. Wait-channel unit behaviour
# ----------------------------------------------------------------------
def test_signal_wakes_at_first_poll_cycle_with_elided_count():
    # Polls at 3, 10, 17, 24, 31; signal at 25 -> wake at 31, 4 polls failed.
    sim = Simulator(elide_waits=True)
    ch = sim.channel("c")
    woken = []
    sim.schedule(0, lambda: ch.wait(
        lambda polls: woken.append((sim.now, polls)), 3, 7))
    sim.schedule(25, ch.signal)
    sim.run()
    assert woken == [(31, 4)]
    # 4 failed polls + the dead burn on the wake cycle = 5 saved events.
    assert sim.elided_events == 5
    assert ch.wakes == 1 and ch.waiters == 0


def test_signal_before_first_poll_wakes_at_t0():
    sim = Simulator(elide_waits=True)
    ch = sim.channel("c")
    woken = []
    sim.schedule(0, lambda: ch.wait(
        lambda polls: woken.append((sim.now, polls)), 3, 7))
    sim.schedule(1, ch.signal)
    sim.run()
    assert woken == [(3, 0)]
    # No polls failed, but the explicit chain would still have burned the
    # already-armed poll event at t0 — one event saved.
    assert sim.elided_events == 1


def test_explicit_mode_same_wake_extra_burn_events():
    def scenario(elide):
        sim = Simulator(elide_waits=elide)
        ch = sim.channel("c")
        woken = []
        sim.schedule(0, lambda: ch.wait(
            lambda polls: woken.append((sim.now, polls)), 3, 7))
        sim.schedule(25, ch.signal)
        sim.run()
        return woken, sim.events_processed, sim.elided_events

    woken_on, processed_on, elided_on = scenario(True)
    woken_off, processed_off, elided_off = scenario(False)
    assert woken_on == woken_off == [(31, 4)]
    assert elided_on == 5 and elided_off == 0
    # Explicit mode materializes the four failed polls as burn events, plus
    # the already-armed burn landing on the wake cycle itself (a dead no-op:
    # the wake decision was made by the signal, never by a burn) — so the
    # elided counter is exactly the explicit mode's extra event volume.
    assert processed_off == processed_on + elided_on


def test_seen_guard_wakes_immediately_after_missed_signal():
    sim = Simulator(elide_waits=True)
    ch = sim.channel("c")
    woken = []

    def observe_then_wait():
        seen = ch.signals
        ch.signal()  # fires with no waiters: would be lost without `seen`
        ch.wait(lambda polls: woken.append((sim.now, polls)), 5, 9, seen=seen)

    sim.schedule(0, observe_then_wait)
    sim.run()
    assert woken == [(5, 0)]
    assert ch.waiters == 0


def test_wait_validates_delay_and_period():
    sim = Simulator()
    ch = sim.channel("c")
    with pytest.raises(SimulationError):
        ch.wait(lambda polls: None, 0, 5)
    with pytest.raises(SimulationError):
        ch.wait(lambda polls: None, 5, 0)


# ----------------------------------------------------------------------
# 2. Exception parking and resume
# ----------------------------------------------------------------------
def _check_parking(mode):
    """Raise mid-bucket, resume, and pin the parking rule in ``mode``.

    ``mode`` picks the drain: ``plain`` takes the fast path, ``until``
    bounds the run, ``profile`` adds a no-op observer (the hooks a
    profiler would use) and ``sanitizer`` the sanitizer's recorder.
    """
    sim = Simulator()
    if mode == "profile":
        sim._observers.append(NullObserver())
    elif mode == "sanitizer":
        sim.enable_sanitizer(AccessRecorder())
    bounds = {"until": 20} if mode == "until" else {}
    fired = []
    raised = []

    def ok(tag):
        fired.append((sim.now, tag))

    def boom():
        raised.append(sim.now)
        raise RuntimeError("boom")

    sim.schedule(5, ok, "a")
    sim.schedule(5, boom)
    sim.schedule(5, ok, "b")
    sim.schedule(9, ok, "c")
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(**bounds)
    # Only the event before the raiser executed; the tail survived, and the
    # raiser itself counts as processed.
    assert fired == [(5, "a")]
    assert sim.pending_events == 2
    assert sim.events_processed == 2
    # Resume: remaining events fire exactly once, the raiser never re-fires.
    sim.run(**bounds)
    assert fired == [(5, "a"), (5, "b"), (9, "c")]
    assert raised == [5]
    assert sim.pending_events == 0
    return sim


def test_exception_parks_unexecuted_tail_fast_path():
    _check_parking("plain")


def test_exception_parks_unexecuted_tail_slow_path():
    assert _check_parking("until").now == 20


@pytest.mark.parametrize("mode", ["profile", "sanitizer"])
def test_exception_parks_unexecuted_tail_observed(mode):
    _check_parking(mode)


def test_exception_park_preserves_wait_channel_wakeups():
    sim = Simulator(elide_waits=True)
    ch = sim.channel("c")
    woken = []
    sim.schedule(0, lambda: ch.wait(
        lambda polls: woken.append((sim.now, polls)), 2, 4))

    def boom():
        raise RuntimeError("boom")

    sim.schedule(9, ch.signal)
    sim.schedule(9, boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    # The wake scheduled by the signal was still pending when boom fired.
    sim.run()
    assert woken == [(10, 2)]


# ----------------------------------------------------------------------
# 3. elide_waits on/off bit-identity across the workload matrix
# ----------------------------------------------------------------------
_LOCK = {"primitive": "lock", "interval": 100, "rounds": 10}
_CORUN_TENANTS = [
    {"name": "locky", "workload": "primitive",
     "args": {"primitive": "lock", "interval": 120, "rounds": 6},
     "units": [0]},
    {"name": "stacky", "workload": "structure",
     "args": {"structure": "stack", "ops_per_core": 5},
     "units": [1]},
]

SCENARIOS = [
    ("primitive", _LOCK, "rmw_spin", {}),
    ("primitive", _LOCK, "bakery", {}),
    ("primitive", _LOCK, "syncron", {}),
    ("primitive", _LOCK, "central", {}),
    ("primitive", {"primitive": "semaphore", "interval": 80, "rounds": 8},
     "rmw_spin", {}),
    ("structure", {"structure": "stack", "ops_per_core": 6}, "rmw_spin", {}),
    ("structure", {"structure": "stack", "ops_per_core": 6}, "bakery", {}),
    ("structure", {"structure": "queue", "ops_per_core": 6}, "rmw_spin", {}),
    ("primitive", {"primitive": "lock", "interval": 100, "rounds": 8},
     "rmw_spin", {"topology": "ring"}),
    ("primitive", {"primitive": "lock", "interval": 100, "rounds": 8},
     "bakery", {"topology": "ring"}),
    ("rwbench", {"read_pct": 80, "rounds": 8}, "rmw_spin", {}),
    ("corun", {"tenants": _CORUN_TENANTS}, "rmw_spin", {}),
]

_IDS = [
    f"{w}-{args.get('primitive') or args.get('structure') or w}-{mech}"
    + ("-" + "-".join(f"{k}={v}" for k, v in extra.items()) if extra else "")
    for w, args, mech, extra in SCENARIOS
]


def _strip_kernel(result):
    """Drop the reserved simulation-effort counters before comparing."""
    clean = dict(result)
    clean["stats"] = {k: v for k, v in result["stats"].items()
                      if not k.startswith("kernel.")}
    return clean


@pytest.mark.parametrize("workload,args,mechanism,extra", SCENARIOS, ids=_IDS)
def test_elision_on_off_bit_identity(workload, args, mechanism, extra):
    results = {}
    for elide in (True, False):
        overrides = dict(SMALL)
        overrides.update(extra)
        overrides["elide_waits"] = elide
        spec = RunSpec.make(workload, mechanism=mechanism, args=args,
                            overrides=overrides)
        record = execute_spec(spec)
        results[elide] = record["result"]
    # Every physics counter — cycles, energy, bytes, occupancy, per-tenant
    # cycles — must match bit-for-bit; only kernel effort may differ.
    assert _strip_kernel(results[True]) == _strip_kernel(results[False])
    if mechanism in ("rmw_spin", "bakery") and args.get("primitive") != "semaphore":
        # Spin mechanisms must actually exercise elision, or this whole
        # matrix silently tests nothing.  The semaphore microbench is
        # exempt: waiters and posters run in lockstep so tokens are almost
        # always available — its retries resolve through the seen-guard
        # immediate-wake path (still covered by the bit-identity check
        # above) without ever parking long enough to elide a poll.
        assert results[True]["stats"]["kernel.elided_events"] > 0
        assert (results[True]["stats"]["kernel.events_processed"]
                < results[False]["stats"]["kernel.events_processed"])
