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
from repro.sim.engine import Process, Simulator
from repro.sim.program import (
    Batch,
    Compute,
    Load,
    RmwOp,
    Store,
    SyncAsyncOp,
    SyncOp,
)


class NDPCore:
    """One in-order NDP core executing a single program."""

    __slots__ = ("sim", "core_id", "unit_id", "local_id", "l1", "memsys",
                 "mechanism", "config", "port", "process", "finished",
                 "finish_time", "instructions_retired", "sync_requests_issued",
                 "_waiting_since", "cycles_waiting_sync", "sender_token")

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

        self.process: Optional[Process] = None
        self.finished = False
        self.finish_time: Optional[int] = None
        self.instructions_retired = 0
        self.sync_requests_issued = 0
        self._waiting_since: Optional[int] = None
        self.cycles_waiting_sync = 0

    # ------------------------------------------------------------------
    def run_program(self, program: Iterator, on_finish: Optional[Callable[[], None]] = None) -> None:
        """Attach and start a program at the current simulation time."""
        if self.process is not None and not self.finished:
            raise RuntimeError(f"core {self.core_id} is already running a program")
        self.finished = False
        self.finish_time = None
        self.process = Process(program, on_finish=self._make_finish_hook(on_finish))
        self.sim.schedule(0, self._advance)

    def _make_finish_hook(self, user_hook):
        def hook():
            self.finished = True
            self.finish_time = self.sim.now
            if user_hook is not None:
                user_hook()
        return hook

    # ------------------------------------------------------------------
    def _advance(self, value=None) -> None:
        """Resume the program and dispatch its next operation."""
        op = self.process.resume(value)
        if op is None:
            return
        # Exact-type dispatch (one dict hit); this runs once per core
        # micro-step.
        handler = _OP_DISPATCH.get(op.__class__)
        if handler is None:
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

    def _load_op(self, op: Load) -> None:
        self._memory_op(op.addr, is_write=False, cacheable=op.cacheable, size=op.size)

    def _store_op(self, op: Store) -> None:
        self._memory_op(op.addr, is_write=True, cacheable=op.cacheable, size=op.size)

    def _batch_op(self, op: Batch) -> None:
        """Resolve a whole Compute/Load/Store sequence in one event."""
        cursor = self.sim.now
        if self.port is not None and op.ops:
            # Claim one issue slot per operation; the memory time of each
            # access still runs on this context's own clock.
            cursor = self.port.reserve(cursor, len(op.ops))
        for sub in op.ops:
            if isinstance(sub, Compute):
                self.instructions_retired += sub.instructions
                cursor += sub.instructions
            else:
                self.instructions_retired += 1
                is_write = isinstance(sub, Store)
                cursor += max(
                    self.memsys.access(
                        self.unit_id, self.l1, sub.addr, is_write,
                        sub.cacheable, cursor, size=sub.size,
                    ),
                    1,
                )
        self.sim.schedule(max(cursor - self.sim.now, 1), self._advance)

    def _memory_op(self, addr: int, is_write: bool, cacheable: bool, size: int) -> None:
        self.instructions_retired += 1
        issue_stall = 0
        now = self.sim.now
        if self.port is not None:
            start = self.port.reserve(now, 1)
            issue_stall = start - now
            now = start
        latency = self.memsys.access(
            self.unit_id, self.l1, addr, is_write, cacheable, now, size=size
        )
        self.sim.schedule(issue_stall + max(latency, 1), self._advance)

    def _issue_then(self, action, *args) -> None:
        """Run ``action(*args)`` once the (possibly shared) pipeline issues
        it.  On single-context cores (no port) this is a plain call — no
        closure, no event."""
        if self.port is None:
            action(*args)
            return
        start = self.port.reserve(self.sim.now, 1)
        if start == self.sim.now:
            action(*args)
        else:
            self.sim.schedule_at(start, action, *args)

    def _sync_op(self, op: SyncOp) -> None:
        self.instructions_retired += 1
        self.sync_requests_issued += 1
        self._waiting_since = self.sim.now
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
        self._issue_then(self._issue_async, op)

    def _issue_async(self, op: SyncAsyncOp) -> None:
        issue_cost = self.mechanism.request_async(self, op.op, op.var, op.info)
        self.sim.schedule(max(issue_cost, 1), self._advance)

    def _rmw_op(self, op: RmwOp) -> None:
        """Atomic rmw at the address's Master SE (Sec. 4.4.1); the program
        resumes with the old value."""
        self.instructions_retired += 1
        self._waiting_since = self.sim.now
        self._issue_then(
            self.mechanism.rmw, self, op.addr, op.op, op.operand,
            self._rmw_granted,
        )

    def _rmw_granted(self, old_value: int) -> None:
        if self._waiting_since is not None:
            self.cycles_waiting_sync += self.sim.now - self._waiting_since
            self._waiting_since = None
        self._advance(old_value)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NDPCore(id={self.core_id}, unit={self.unit_id}, local={self.local_id})"


#: exact operation type -> unbound handler, resolved once at import.
_OP_DISPATCH = {
    Compute: NDPCore._compute_op,
    Load: NDPCore._load_op,
    Store: NDPCore._store_op,
    Batch: NDPCore._batch_op,
    SyncOp: NDPCore._sync_op,
    SyncAsyncOp: NDPCore._sync_async_op,
    RmwOp: NDPCore._rmw_op,
}
