"""In-order NDP core model.

The paper's cores (Sec. 5) are simple in-order cores: one memory operation
outstanding, the next instruction issues only when the previous completes.
We model a core as a driver for one program generator (see
:mod:`repro.sim.program`): each yielded operation is resolved to a latency
and the generator resumes when it elapses.

Synchronization operations are delegated to the system's
:class:`~repro.sim.syncif.SyncMechanism`; the core simply parks until the
mechanism's grant callback fires (``req_sync``), or continues after the issue
cost (``req_async``).
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from repro.sim.cache import L1Cache
from repro.sim.engine import Simulator
from repro.sim.program import (
    Batch,
    Compute,
    Load,
    Store,
    SyncAsyncOp,
    SyncOp,
)


class NDPCore:
    """One in-order NDP core executing a single program.

    :meth:`_advance` resumes the program's generator and hands each
    yielded operation to its handler; when the generator is exhausted the
    core is finished and its ``on_finish`` hook fires once.  On a core
    with no shared SMT pipeline (``port is None``, one context per core)
    a load or store is one :meth:`MemorySystem.access
    <repro.sim.memsys.MemorySystem.access>` call from its handler
    (:meth:`_memory_op`), and a sync request goes straight to the
    mechanism; with a port each first claims an issue slot
    (:meth:`_issue_then` for sync requests).
    """

    __slots__ = ("sim", "core_id", "unit_id", "local_id", "l1", "memsys",
                 "mechanism", "config", "port", "_send", "_on_finish",
                 "finished", "finish_time", "instructions_retired",
                 "sync_requests_issued", "_waiting_since",
                 "cycles_waiting_sync", "sender_token")

    def __init__(
        self,
        sim: Simulator,
        core_id: int,
        unit_id: int,
        local_id: int,
        l1: L1Cache,
        memsys,
        mechanism,
        config,
        port=None,
    ):
        self.sim = sim
        self.core_id = core_id        # globally unique (= hw context id)
        #: interned FIFO-clamp key for SE receive paths (one tuple per core,
        #: not one per message).
        self.sender_token = ("core", core_id)
        self.unit_id = unit_id
        self.local_id = local_id      # unique within the unit
        self.l1 = l1
        self.memsys = memsys
        self.mechanism = mechanism
        self.config = config
        #: shared in-order pipeline when several hardware thread contexts
        #: live on one physical core (Sec. 4 SMT note); None = sole owner.
        self.port = port

        #: the running program's ``send``, and the hook its end fires.
        self._send: Optional[Callable] = None
        self._on_finish: Optional[Callable[[], None]] = None
        self.finished = False
        self.finish_time: Optional[int] = None
        self.instructions_retired = 0
        self.sync_requests_issued = 0
        self._waiting_since: Optional[int] = None
        self.cycles_waiting_sync = 0

    # ------------------------------------------------------------------
    def run_program(self, program: Iterator, on_finish: Optional[Callable[[], None]] = None) -> None:
        """Attach and start a program at the current simulation time."""
        if self._send is not None and not self.finished:
            raise RuntimeError(f"core {self.core_id} is already running a program")
        self.finished = False
        self.finish_time = None
        self._send = program.send
        self._on_finish = on_finish
        self.sim.schedule(0, self._advance)

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Resume the program and dispatch its next operation.

        On exhaustion the core is marked finished (at the current cycle)
        and fires its ``on_finish`` once; a finished program is never
        resumed again.
        """
        if self.finished:
            return
        try:
            op = self._send(None)
        except StopIteration:
            self.finished = True
            self.finish_time = self.sim.now
            if self._on_finish is not None:
                self._on_finish()
            return
        # Exact-type dispatch (one dict hit); this runs once per core
        # micro-step.
        handler = _OP_DISPATCH.get(op.__class__)
        if handler is None:
            if op is None:
                return
            raise TypeError(f"program yielded unknown operation {op!r}")
        handler(self, op)

    def _compute_op(self, op: Compute) -> None:
        instructions = op.instructions
        self.instructions_retired += instructions
        # 1 IPC in-order pipeline; zero-instruction compute still takes
        # no time (pure marker).  A shared pipeline (SMT) must first be
        # claimed for the whole sequence.
        delay = instructions
        if self.port is not None and instructions > 0:
            start = self.port.reserve(self.sim.now, instructions)
            delay = (start - self.sim.now) + instructions
        self.sim.schedule(delay, self._advance)

    def _memory_op(self, op) -> None:
        """A :class:`Load` or :class:`Store`: one memory access, issued
        once the (possibly shared) pipeline takes it; the program resumes
        when it completes."""
        self.instructions_retired += 1
        sim = self.sim
        now = sim.now
        start = now if self.port is None else self.port.reserve(now, 1)
        latency = self.memsys.access(self.unit_id, self.l1, op.addr,
                                     op.__class__ is Store, op.cacheable,
                                     start, op.size)
        sim.schedule((start - now) + (latency if latency > 1 else 1),
                     self._advance)

    def _batch_op(self, op: Batch) -> None:
        """Resolve a whole Compute/Load/Store sequence in one event.

        Sub-ops dispatch by exact class, as :data:`_OP_DISPATCH` does
        (``Batch`` admits only these three classes, not subclasses)."""
        now = self.sim.now
        cursor = now
        ops = op.ops
        if self.port is not None and ops:
            # Claim one issue slot per operation; the memory time of each
            # access still runs on this context's own clock.
            cursor = self.port.reserve(cursor, len(ops))
        access = self.memsys.access
        unit, l1 = self.unit_id, self.l1
        retired = 0
        for sub in ops:
            cls = sub.__class__
            if cls is Compute:
                retired += sub.instructions
                cursor += sub.instructions
            else:
                retired += 1
                latency = access(unit, l1, sub.addr, cls is Store,
                                 sub.cacheable, cursor, sub.size)
                cursor += latency if latency > 1 else 1
        self.instructions_retired += retired
        delay = cursor - now
        self.sim.schedule(delay if delay > 1 else 1, self._advance)

    def _issue_then(self, action, *args) -> None:
        """Run ``action(*args)`` once the shared (SMT) pipeline issues it;
        single-context cores (no port) call ``action`` directly instead."""
        start = self.port.reserve(self.sim.now, 1)
        if start == self.sim.now:
            action(*args)
        else:
            self.sim.schedule_at(start, action, *args)

    def _sync_op(self, op: SyncOp) -> None:
        self.instructions_retired += 1
        self.sync_requests_issued += 1
        self._waiting_since = self.sim.now
        if self.port is None:
            self.mechanism.request(self, op.op, op.var, op.info,
                                   self._sync_granted)
            return
        self._issue_then(
            self.mechanism.request, self, op.op, op.var, op.info,
            self._sync_granted,
        )

    def _sync_granted(self) -> None:
        if self._waiting_since is not None:
            self.cycles_waiting_sync += self.sim.now - self._waiting_since
            self._waiting_since = None
        self._advance()

    def _sync_async_op(self, op: SyncAsyncOp) -> None:
        self.instructions_retired += 1
        self.sync_requests_issued += 1
        if self.port is None:
            self._issue_async(op)
            return
        self._issue_then(self._issue_async, op)

    def _issue_async(self, op: SyncAsyncOp) -> None:
        issue_cost = self.mechanism.request_async(self, op.op, op.var, op.info)
        self.sim.schedule(max(issue_cost, 1), self._advance)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NDPCore(id={self.core_id}, unit={self.unit_id}, local={self.local_id})"


#: exact operation type -> unbound handler, resolved once at import.
_OP_DISPATCH = {
    Compute: NDPCore._compute_op,
    Load: NDPCore._memory_op,
    Store: NDPCore._memory_op,
    Batch: NDPCore._batch_op,
    SyncOp: NDPCore._sync_op,
    SyncAsyncOp: NDPCore._sync_async_op,
}
