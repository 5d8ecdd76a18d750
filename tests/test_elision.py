"""Event-elision kernel: wait-channels and exception parking.

Three contracts pinned here:

1. Wait-channel arithmetic — a signalled waiter wakes at exactly the cycle
   its poll chain would have succeeded on, with the correct count of
   elided polls, checked against enumerating the poll cycles one by one.
2. Exception parking — a callback that raises mid-bucket leaves the
   un-executed tail of the queue intact; resuming ``run`` fires each
   remaining event exactly once and never re-fires the raiser, in every
   drain mode (fast, bounded, observed, sanitized).
3. Whole runs — spin scenarios elide, ``kernel.elided_events`` is the
   wake log's ``polls + 1`` per parked waiter, and recording the wake log
   (the observed drain) changes no result, kernel counters included,
   across primitives, structures, topologies, mechanisms, and co-runs.
"""

from hypothesis import given, settings, strategies as st
import pytest

from repro.analysis.sanitizer import AccessRecorder
from repro.testing import NullObserver
from repro.harness.specs import RunSpec
from repro.sim.engine import SimulationError, Simulator
from repro.sim.system import NDPSystem
from repro.workloads.base import run_workload

# Small machine: 2 units x 3 client cores keeps even bakery scenarios fast.
SMALL = {"num_units": 2, "cores_per_unit": 4, "client_cores_per_unit": 3}


# ----------------------------------------------------------------------
# 1. Wait-channel unit behaviour
# ----------------------------------------------------------------------
def test_signal_wakes_at_first_poll_cycle_with_elided_count():
    # Polls at 3, 10, 17, 24, 31; signal at 25 -> wake at 31, 4 polls failed.
    sim = Simulator()
    ch = sim.channel("c")
    woken = []
    sim.schedule(0, lambda: ch.wait(
        lambda polls: woken.append((sim.now, polls)), 3, 7))
    sim.schedule(25, ch.signal)
    sim.run()
    assert woken == [(31, 4)]
    # 4 failed polls + the poll armed for the wake cycle = 5 saved events.
    assert sim.elided_events == 5
    assert ch.wakes == 1 and ch.waiters == 0


def test_signal_before_first_poll_wakes_at_t0():
    sim = Simulator()
    ch = sim.channel("c")
    woken = []
    sim.schedule(0, lambda: ch.wait(
        lambda polls: woken.append((sim.now, polls)), 3, 7))
    sim.schedule(1, ch.signal)
    sim.run()
    assert woken == [(3, 0)]
    # No polls failed, but the poll chain would still have run the
    # already-armed poll at t0 — one event saved.
    assert sim.elided_events == 1


def test_seen_guard_wakes_immediately_after_missed_signal():
    sim = Simulator()
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


def _first_successful_poll(t0, period, signal_at):
    """Walk the poll cycles t0, t0 + period, ... one by one: the first
    one at or after ``signal_at`` and how many came before it."""
    polls, cycle = 0, t0
    while cycle < signal_at:
        polls += 1
        cycle += period
    return cycle, polls


# (registration cycle, first_delay, period, observation cycle or None)
_WAITERS = st.lists(
    st.tuples(st.integers(0, 40), st.integers(1, 20), st.integers(1, 12),
              st.one_of(st.none(), st.integers(0, 40))),
    min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(waiters=_WAITERS, signal_at=st.integers(0, 80))
def test_wake_cycles_match_enumerated_poll_chain(waiters, signal_at):
    """Wake cycle, elided polls, wake order and the ``seen`` guard against
    brute force.

    Waiter ``i`` observes the channel (snapshots ``signals``) at its
    observation cycle, registers at its registration cycle with that
    snapshot as ``seen``, and polls ``first_delay`` cycles later and every
    ``period`` after.  One signal fires at ``signal_at``, after every
    observation and registration scheduled for that cycle.
    """
    # Observation never follows registration.
    waiters = [(register if observe is None else max(register, observe),
                first_delay, period, observe)
               for register, first_delay, period, observe in waiters]
    sim = Simulator()
    ch = sim.channel("c")
    fired, seen = [], {}

    def snapshot(i):
        seen[i] = ch.signals

    def record(polls, i):
        fired.append((sim.now, polls, i))

    def wait(i, first_delay, period):
        ch.wait(record, first_delay, period, i, seen=seen.get(i))

    for i, (_, _, _, observed) in enumerate(waiters):
        if observed is not None:
            sim.schedule(observed, snapshot, i)
    for i, (registered, first_delay, period, _) in enumerate(waiters):
        sim.schedule(registered, wait, i, first_delay, period)
    sim.schedule(signal_at, ch.signal)
    sim.run()

    expected, parked, elided = [], 0, 0
    for i, (register, first_delay, period, observe) in enumerate(waiters):
        t0 = register + first_delay
        if observe is not None and observe <= signal_at < register:
            # The signal fell between observation and registration: woken
            # at the first poll, nothing elided.
            expected.append(((t0, register, register, i), (t0, 0, i)))
        elif register <= signal_at:
            wake, polls = _first_successful_poll(t0, period, signal_at)
            elided += polls + 1
            # Woken by the signal, so scheduled at signal_at, in
            # registration order.
            expected.append(((wake, signal_at, register, i), (wake, polls, i)))
        else:
            parked += 1
    assert fired == [event for _, event in sorted(expected)]
    assert sim.elided_events == elided
    assert ch.wakes == len(expected)
    assert ch.waiters == sim.waiting == parked


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
    sim = Simulator()
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
# 3. Whole runs: spin scenarios elide, and the wake log observes only
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


@pytest.mark.parametrize("workload,args,mechanism,extra", SCENARIOS, ids=_IDS)
def test_elision_on_off_bit_identity(workload, args, mechanism, extra):
    """Recording the wake log on and off gives identical results, and the
    elided count is the log's failed polls plus one per woken waiter."""
    overrides = dict(SMALL)
    overrides.update(extra)
    spec = RunSpec.make(workload, mechanism=mechanism, args=args,
                        overrides=overrides)
    plain = run_workload(spec.build_workload, spec.config(), mechanism)
    system = NDPSystem(spec.config(), mechanism=mechanism)
    wake_log = system.sim.record_wakes()
    logged = spec.build_workload().run(system)
    # Every counter — cycles, energy, bytes, occupancy, per-tenant cycles
    # and the kernel's own — must match bit-for-bit.
    assert logged.as_dict() == plain.as_dict()
    elided = plain.stats["kernel.elided_events"]
    assert elided == sum(polls + woken for _, _, woken, polls, _, _ in wake_log)
    if mechanism in ("rmw_spin", "bakery") and args.get("primitive") != "semaphore":
        # Spin mechanisms must actually exercise elision, or this whole
        # matrix silently tests nothing.  The semaphore microbench is
        # exempt: waiters and posters run in lockstep so tokens are almost
        # always available — its retries resolve through the seen-guard
        # immediate-wake path without ever parking long enough to elide a
        # poll.
        assert elided > 0
