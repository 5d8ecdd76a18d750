"""Discrete-event simulation kernel.

The whole reproduction runs on a small, deterministic event-driven kernel:
callbacks scheduled at integer cycle timestamps (core-clock cycles at
2.5 GHz, see :mod:`repro.sim.clock`).  Components (cores, synchronization
engines, DRAM banks, links) are plain Python objects that schedule callbacks
on a shared :class:`Simulator`.

Determinism: events at the same timestamp fire in insertion order, so a
given seed always produces the same execution.

Hot-path design notes
---------------------

Every simulated cycle of every component flows through this module, so it is
written for throughput first:

- ``schedule``/``schedule_at`` accept ``*args`` for the callback.  Call sites
  pass bound methods plus arguments (``sim.schedule(d, self._finish, msg)``)
  instead of allocating a closure per event — by far the largest win in the
  event storm generated by the messaging layers.
- The pending set is a **bucket queue**: a dict mapping timestamp -> flat
  event list ``[cb, args, cb, args, ...]`` plus a min-heap of *distinct*
  timestamps (plain ints, one per bucket).  Insertion order within a
  timestamp is the list order — no sequence counter needed.
- The queue is tuned for the traffic it measurably gets: **about one event
  per timestamp**.  At seed 0 the e2ebench workloads run 735,942 /
  629,180 / 110,779 events over 618,276 / 604,206 / 107,586 distinct
  timestamps (1.19 / 1.04 / 1.03 events per timestamp on ``apps`` /
  ``structures`` / ``spin``), so 84-97% of schedules open a new bucket.
  ``schedule``/``schedule_at`` therefore take the miss with
  ``buckets.get`` (about half the cost of a raised and caught
  ``KeyError``); a hit is two list appends.
- The fast drain **detaches** each bucket (``buckets.pop``) before running
  it, paying clock/bookkeeping once per timestamp.  A one-event bucket is
  one direct call, with no iterator.  A same-cycle schedule made while a
  bucket runs misses the dict, opens a fresh bucket and re-pushes the
  timestamp; that bucket drains right after, so ``(time, insertion)``
  order is unchanged.  The observed drain (``_drain``) keeps its running
  bucket in the dict instead, so same-cycle schedules append to it and
  the observers' ``origin`` bookkeeping sees them in place.
- When a callback raises, :meth:`Simulator._park` requeues the bucket's
  un-executed tail *ahead of* any fresh same-time bucket the bucket's
  callbacks opened, and never merges the observed drain's in-dict bucket
  with itself, so resuming fires the rest in the order an uninterrupted
  run would have.
- Past-scheduling validation is always on: the ``delay < 0`` /
  ``time < now`` compare is the branch the valid path takes anyway.
- ``__slots__`` on :class:`Simulator`, :class:`WaitChannel` and its
  waiters keep the millions of attribute accesses on the hot path
  dict-free.

Event elision
-------------

Spin-style components used to schedule a poll -> fail -> reschedule chain:
one kernel event per poll that does nothing but check a condition and go
back to sleep.  :class:`WaitChannel` replaces the chain with arithmetic.  A
waiter registers ``(t0, period)`` — the absolute cycle of its first check
and the spacing of the following ones — and goes dormant.  When the
condition is signalled at cycle ``T``, the kernel computes the first check
timestamp ``>= T`` in O(1)::

    wake = t0                                if T <= t0
    wake = t0 + ceil((T - t0)/period)*period otherwise

and schedules the waiter's callback there, passing the number of checks
that would have failed strictly before ``wake``.  The wake cycle is
*exactly* the cycle the poll chain would have succeeded on, so
eliding is invisible to simulated time.  ``Simulator.elided_events``
counts the events the chain would have run: the failed polls plus the
poll already armed for the wake cycle, ``polls + 1`` per parked waiter.

Observers
---------

``run`` has exactly two drain loops.  The fast path drains everything with
no per-event hooks.  The bounded drain handles ``until``/``max_events`` and
the wake log, and calls a plain list of observers:
``before_event(callback, origin)`` and ``after_event(callback)`` around
every callback, ``end_cycle(time)`` once per drained timestamp.
``origin`` is the index (within the timestamp) of the event that
scheduled this one into the same cycle, or None when it was scheduled
from an earlier cycle.  The sanitizer's ``AccessRecorder`` is the one
observer; observing never changes simulated state.

Either drain adds its host seconds to ``Simulator.wall_seconds`` (one
``perf_counter`` pair per ``run`` call, nothing per event), which is all
the telemetry bus reads, so a ``--telemetry`` run takes the fast drain.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

_INFINITY = float("inf")


class SimulationError(RuntimeError):
    """Raised for kernel misuse (e.g., scheduling into the past)."""


class _Waiter:
    """One registered wait: the poll arithmetic plus the wake callback."""

    __slots__ = ("t0", "period", "callback", "args")

    def __init__(self, t0: int, period: int, callback, args):
        self.t0 = t0
        self.period = period
        self.callback = callback
        self.args = args


class WaitChannel:
    """A condition that components block on instead of polling.

    ``wait`` records the waiter's poll schedule; ``signal`` wakes every
    current waiter at the first poll timestamp >= now (see the module
    docstring for the arithmetic).  Signalling is wake-all: a woken
    component re-checks its condition with one *real* attempt and re-waits
    if the state does not satisfy it (spurious wakeups are safe by
    construction, exactly like condition variables).

    ``signals`` counts every signal ever fired on the channel — including
    ones with no waiters.  Callers use it to close the classic lost-wakeup
    race: snapshot ``channel.signals`` in the same event frame where the
    condition was *observed*, then pass it as ``seen`` to :meth:`wait`.
    If any signal fired between observation and registration the kernel
    wakes the waiter immediately at its first poll cycle instead of
    parking it forever.
    """

    __slots__ = ("sim", "name", "signals", "wakes", "_waiters")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        #: total signal() calls ever (the lost-wakeup guard; see class doc).
        self.signals = 0
        #: total waiters ever woken.
        self.wakes = 0
        self._waiters: List[_Waiter] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"WaitChannel({self.name!r}, waiters={len(self._waiters)}, "
                f"signals={self.signals})")

    @property
    def waiters(self) -> int:
        return len(self._waiters)

    def wait(self, callback: Callable[..., None], first_delay: int,
             period: int, *args, seen: Optional[int] = None) -> None:
        """Block until the channel is signalled.

        The waiter's virtual polls happen at ``now + first_delay`` and every
        ``period`` cycles after that.  On wakeup ``callback(polls, *args)``
        runs at the first poll cycle >= the signal time, where ``polls`` is
        the number of polls that failed before it (all elided).

        ``seen`` is a ``channel.signals`` snapshot taken when the caller
        observed the condition; if the channel was signalled since, the
        waiter is woken at its first poll cycle right away (``polls=0``).
        """
        if first_delay < 1 or period < 1:
            raise SimulationError(
                f"wait needs first_delay >= 1 and period >= 1, got "
                f"({first_delay}, {period})"
            )
        sim = self.sim
        t0 = sim.now + first_delay
        if seen is not None and seen != self.signals:
            # Lost-wakeup guard: the state changed between observation and
            # registration.  The poll chain's first poll would have
            # re-observed it at t0; wake there with nothing elided.
            self.wakes += 1
            sim.schedule_at(t0, callback, 0, *args)
            return
        self._waiters.append(_Waiter(t0, period, callback, args))
        sim._waiting += 1

    def signal(self) -> int:
        """Wake all current waiters; returns the number woken.

        Each waiter's callback is scheduled at its first poll cycle >= now,
        computed from its registered arithmetic, in registration order.
        """
        self.signals += 1
        waiters = self._waiters
        if not waiters:
            return 0
        sim = self.sim
        now = sim.now
        polls_total = 0
        for waiter in waiters:
            t0 = waiter.t0
            if now <= t0:
                polls = 0
                wake = t0
            else:
                polls = -((t0 - now) // waiter.period)
                wake = t0 + polls * waiter.period
            # The poll chain would run the failed polls plus the poll
            # already armed for the wake cycle: polls + 1 events saved.
            sim.elided_events += polls + 1
            polls_total += polls
            sim.schedule_at(wake, waiter.callback, polls, *waiter.args)
        count = len(waiters)
        self._waiters = []
        self.wakes += count
        sim._waiting -= count
        if sim.wake_log is not None:
            sim.wake_log.append((now, self.name, count, polls_total,
                                 sim._events_processed, sim.elided_events))
        return count


class Simulator:
    """An event-driven simulator with an integer cycle clock.

    >>> sim = Simulator()
    >>> fired = []
    >>> sim.schedule(5, lambda: fired.append(sim.now))
    >>> sim.run()
    >>> fired
    [5]
    """

    __slots__ = ("now", "_times", "_buckets", "_events_processed",
                 "_waiting", "elided_events",
                 "wall_seconds", "wake_log", "sanitizer", "_observers")

    def __init__(self) -> None:
        self.now: int = 0
        #: min-heap of distinct pending timestamps (plain ints).
        self._times: List[int] = []
        #: timestamp -> flat event list [cb, args, cb, args, ...].
        self._buckets: Dict[int, list] = {}
        self._events_processed: int = 0
        #: waiters currently parked across all channels (diagnostics).
        self._waiting: int = 0
        #: events the kernel accounted for without materializing them.
        self.elided_events: int = 0
        #: host seconds spent inside :meth:`run`, over all calls.
        self.wall_seconds: float = 0.0
        #: wake-event log (None = off; see :meth:`record_wakes`).
        self.wake_log: Optional[List[Tuple[int, str, int, int, int, int]]] = None
        #: runtime determinism sanitizer (None = off; see
        #: :meth:`enable_sanitizer`).
        self.sanitizer = None
        #: before_event/after_event/end_cycle hooks of the bounded drain.
        self._observers: list = []

    @property
    def waiting(self) -> int:
        """Waiters currently parked on wait-channels."""
        return self._waiting

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def record_wakes(self) -> List[Tuple[int, str, int, int, int, int]]:
        """Log every :meth:`WaitChannel.signal` that wakes waiters.

        Each record is ``(cycle, channel_name, woken, polls_elided,
        events_processed, elided_events)`` with the two counters sampled
        *at the signal* — the raw material for Chrome-trace counter tracks
        and instant events (:mod:`repro.sim.chrometrace`).  Purely
        observational; timing is unaffected.
        """
        if self.wake_log is None:
            self.wake_log = []
        return self.wake_log

    def enable_sanitizer(self, recorder=None):
        """Turn on the runtime determinism sanitizer for this simulator.

        Routes draining through the observed drain, whose recorder
        snapshots every event callback's owner around execution and reduces
        each cycle's access map to same-cycle ordering hazards (see
        :mod:`repro.analysis.sanitizer`).  Observational only — simulated
        results are unchanged — but costs a few times wall clock, hence
        opt-in (``repro run ... --sanitize``).  Idempotent; returns the
        active recorder.
        """
        if self.sanitizer is None:
            if recorder is None:
                # Lazy import: the kernel must stay importable without the
                # analysis package and free of any cost when not sanitizing.
                from repro.analysis.sanitizer import (
                    AccessRecorder,
                    current_session,
                )

                session = current_session()
                recorder = (session.recorder() if session is not None
                            else AccessRecorder())
            self.sanitizer = recorder
            self._observers.append(recorder)
        return self.sanitizer

    # ------------------------------------------------------------------
    # Wait-channels
    # ------------------------------------------------------------------
    def channel(self, name: str = "") -> WaitChannel:
        """A fresh condition object components can block on."""
        return WaitChannel(self, name)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[..., None], *args) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now.

        ``delay`` must be a whole number of cycles — all component latencies
        in this codebase are ints by construction, and the kernel relies on
        that (timestamps are dict keys and heap entries).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay} cycles into the past")
        time = self.now + delay
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback, args]
            heappush(self._times, time)
        else:
            bucket.append(callback)
            bucket.append(args)

    def schedule_at(self, time: int, callback: Callable[..., None], *args) -> None:
        """Schedule ``callback(*args)`` to run at absolute cycle ``time``
        (a whole number of cycles; see :meth:`schedule`)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time}, current time is {self.now}"
            )
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [callback, args]
            heappush(self._times, time)
        else:
            bucket.append(callback)
            bucket.append(args)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single earliest event.  Returns False if queue is empty.

        Debug/test entry point; ``run`` is the fast path.
        """
        times = self._times
        if not times:
            return False
        time = times[0]
        bucket = self._buckets[time]
        callback, args = bucket[0], bucket[1]
        if len(bucket) > 2:
            del bucket[:2]
        else:
            del self._buckets[time]
            heappop(times)
        self.now = time
        self._events_processed += 1
        callback(*args)
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the event queue drains.

        Args:
            until: stop once simulated time would pass this cycle (events at
                exactly ``until`` still execute).
            max_events: safety valve against livelock; raises if exceeded.
        """
        start = perf_counter()
        if (self._observers or self.wake_log is not None
                or until is not None or max_events is not None):
            try:
                self._drain(until, max_events)
            finally:
                self.wall_seconds += perf_counter() - start
            return
        # Fast path: drain everything, detaching each bucket before it runs
        # (see the module docstring).  A one-event bucket, most of them,
        # is a single direct call.
        times = self._times
        detach = self._buckets.pop
        pop = heappop
        processed = 0
        try:
            while times:
                time = pop(times)
                self.now = time
                bucket = detach(time)
                if len(bucket) == 2:
                    # Counted before the call: a raiser counts once and,
                    # already detached, has no tail to park.
                    processed += 1
                    callback, args = bucket
                    callback(*args)
                    continue
                count = 0
                it = iter(bucket)
                try:
                    # zip-ing an iterator with itself walks (callback,
                    # args) pairs at C speed.
                    for callback, args in zip(it, it):
                        count += 1
                        callback(*args)
                except BaseException:
                    # Park the un-executed remainder so a caller that
                    # catches and resumes cannot re-fire executed events.
                    self._park(time, bucket, count * 2)
                    processed += count
                    raise
                processed += count
        finally:
            self._events_processed += processed
            self.wall_seconds += perf_counter() - start

    def _drain(self, until: Optional[int], max_events: Optional[int]) -> None:
        """The bounded, observed drain loop.

        Handles ``until``/``max_events`` and calls every observer's hooks
        (see the module docstring).  ``_events_processed`` is committed per
        timestamp so in-run readers — :meth:`WaitChannel.signal` writing the
        wake log — see live counts.  A callback that raises counts as
        processed and is parked out of the queue with everything before it,
        so resuming never re-fires it.  The clock always reaches ``until``
        when one is given — whether the queue empties before it or its head
        is past it (events at exactly ``until`` still execute).
        """
        times = self._times
        buckets = self._buckets
        pop = heappop
        observers = self._observers
        bound = _INFINITY if until is None else until
        limit = _INFINITY if max_events is None else max_events
        processed = 0
        while times:
            time = times[0]
            if time > bound:
                break
            pop(times)
            self.now = time
            bucket = buckets[time]
            count = 0
            # Same-cycle causality for observers: pairs appended while event
            # k runs were scheduled by it (directly or transitively).
            origins: List[Optional[int]] = [None] * (len(bucket) >> 1)
            it = iter(bucket)
            try:
                for callback, args in zip(it, it):
                    if processed >= limit:
                        raise SimulationError(
                            f"exceeded max_events={max_events} at "
                            f"t={self.now}; likely livelock in a "
                            "component model"
                        )
                    count += 1
                    processed += 1
                    if not observers:
                        callback(*args)
                        continue
                    origin = origins[count - 1]
                    for observer in observers:
                        observer.before_event(callback, origin)
                    callback(*args)
                    for observer in observers:
                        observer.after_event(callback)
                    appended = (len(bucket) >> 1) - len(origins)
                    if appended:
                        origins.extend([count - 1] * appended)
            except BaseException:
                self._park(time, bucket, count * 2)
                raise
            else:
                del buckets[time]
            finally:
                self._events_processed += count
                for observer in observers:
                    observer.end_cycle(time)
        if until is not None and until > self.now:
            # Queue drained or its head is past the bound: the clock still
            # advances to ``until`` in both cases.
            self.now = until

    def _park(self, time: int, bucket: list, i: int) -> None:
        """Requeue the un-executed tail ``bucket[i:]`` (exception unwinding).

        The drain popped ``time`` off the heap.  The observed drain keeps
        its running bucket in the dict (same-cycle schedules append to
        it), so the tail already holds them.  The fast drain detached its
        bucket, so a fresh bucket at ``time`` holds events scheduled after
        the tail's: the tail goes ahead of them, under the heap entry the
        fresh bucket pushed.
        """
        buckets = self._buckets
        rest = bucket[i:]
        fresh = buckets.get(time)
        if fresh is not None and fresh is not bucket:
            buckets[time] = rest + fresh
        elif rest:
            buckets[time] = rest
            heappush(self._times, time)
        elif fresh is bucket:
            del buckets[time]

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        # Computed on demand (diagnostics/tests) so the hot paths don't pay
        # a counter update per event.
        return sum(len(bucket) for bucket in self._buckets.values()) >> 1
