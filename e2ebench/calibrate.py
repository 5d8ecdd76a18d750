"""Host-speed probe: a frozen pure-Python event loop, independent of repro.

Shared hosts drift in speed by tens of percent over minutes.  The probe's
instruction mix (heap pushes and pops, bound-method callbacks, dict and
attribute traffic) resembles the simulator's, and it never imports the
program under test, so a change to the program cannot move it.  Timing it
beside each pass gives the host's speed at that moment.
"""

from __future__ import annotations

import signal
from heapq import heappop, heappush
from time import monotonic, perf_counter
from typing import List, Tuple

#: events per probe: a few milliseconds on a 2 GHz x86 core.
PROBE_EVENTS = 5000
#: probes taken as a pass's first spec starts; their median scales the
#: set-up time, which has no probes of its own.
START_PROBES = 3


class _Node:
    __slots__ = ("ident", "busy_until", "served", "table")

    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.busy_until = 0
        self.served = 0
        self.table = {}

    def serve(self, loop: "_Loop", now: int, size: int) -> None:
        start = now if now > self.busy_until else self.busy_until
        self.busy_until = start + 1 + (size >> 3)
        self.served += 1
        key = (self.ident * 31 + size) & 255
        self.table[key] = self.table.get(key, 0) + size
        if self.served % 7:
            loop.schedule(self.busy_until - now + 3,
                          loop.nodes[(self.ident + size) % len(loop.nodes)],
                          (size * 5 + 3) & 63)


class _Loop:
    def __init__(self, nodes: int) -> None:
        self.now = 0
        self.seq = 0
        self.queue = []
        self.nodes = [_Node(i) for i in range(nodes)]

    def schedule(self, delay: int, node: _Node, size: int) -> None:
        self.seq += 1
        heappush(self.queue, (self.now + delay, self.seq, node, size))

    def run(self, events: int) -> int:
        done = 0
        queue = self.queue
        while queue and done < events:
            self.now, _seq, node, size = heappop(queue)
            node.serve(self, self.now, size)
            done += 1
            if len(queue) < 8:
                self.schedule(1, self.nodes[done % len(self.nodes)], done & 63)
        return done


def probe(events: int = PROBE_EVENTS) -> float:
    """Host seconds for a fixed event count (lower = faster host)."""
    loop = _Loop(16)
    for i in range(16):
        loop.schedule(i, loop.nodes[i], i)
    start = perf_counter()
    loop.run(events)
    return perf_counter() - start


class ProbeLog:
    """Probes taken during one pass, as ``(offset, seconds)`` pairs.

    ``offset`` is the probe's start in seconds after ``origin``.  Besides
    explicit :meth:`take` calls between specs, :meth:`start_ticking` probes
    every ``period`` seconds from a ``SIGALRM`` handler, so a long spec is
    sampled while it runs; the handler touches only the probe's own
    objects, and the time it takes is known and subtracted by the reader.
    """

    def __init__(self) -> None:
        self.origin = 0.0
        self.samples: List[Tuple[float, float]] = []
        self._busy = False

    def take(self) -> None:
        if self._busy:  # a tick landing inside a probe would nest
            return
        self._busy = True
        try:
            start = monotonic()
            self.samples.append((start - self.origin, probe()))
        finally:
            self._busy = False

    def start_ticking(self, period: float) -> None:
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.take())
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop_ticking(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
