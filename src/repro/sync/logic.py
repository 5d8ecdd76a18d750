"""Timing-free synchronization semantics.

:class:`SyncLogic` implements the *logical* behaviour of locks, barriers,
semaphores and condition variables with no messages and no latency: apply an
operation, get back the set of cores that may now proceed.  It is the
semantic reference for every mechanism (the property tests check SynCron's
distributed protocol against it) and the engine behind the Ideal baseline
(zero-overhead synchronization, Sec. 5 "Comparison Points").
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.sim.program import (
    BARRIER_WAIT_ACROSS_UNITS,
    BARRIER_WAIT_WITHIN_UNIT,
    COND_BROADCAST,
    COND_SIGNAL,
    COND_WAIT,
    LOCK_ACQUIRE,
    LOCK_RELEASE,
    RW_READ_ACQUIRE,
    RW_READ_RELEASE,
    RW_WRITE_ACQUIRE,
    RW_WRITE_RELEASE,
    SEM_POST,
    SEM_WAIT,
)
from repro.sim.syncif import SyncUsageError


class LogicError(SyncUsageError):
    """An operation a correct program could not have issued."""


class _VarState:
    """One variable's state.  A variable has a single kind, so one FIFO
    (``queue``) holds whatever waits on it: a lock's or semaphore's core
    ids, a barrier's arrivals, a condvar's ``(core, lock_var)`` pairs or a
    reader-writer lock's ``("r" | "w", core)`` pairs."""

    __slots__ = ("kind", "owner", "sem_value", "sem_initialized", "readers",
                 "writer", "queue")

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.owner: Optional[int] = None         # lock
        self.sem_value = 0                       # semaphore
        self.sem_initialized = False
        self.readers = 0                         # reader-writer lock
        self.writer: Optional[int] = None
        self.queue = deque()


class SyncLogic:
    """Reference semantics for all four primitives."""

    def __init__(self) -> None:
        self._vars: Dict[int, _VarState] = {}

    def _state(self, var, kind: str) -> _VarState:
        st = self._vars.get(var.addr)
        if st is None:
            st = _VarState(kind)
            self._vars[var.addr] = st
        elif st.kind != kind:
            raise LogicError(
                f"variable {var.name} used as {st.kind} and now as {kind}"
            )
        return st

    # ------------------------------------------------------------------
    def apply(self, core_id: int, op: str, var, info=0) -> List[int]:
        """Apply one operation; returns the cores that may now proceed.

        For acquire-type operations the requesting core appears in the
        result iff it was granted immediately.
        """
        if op == LOCK_ACQUIRE:
            return self._lock_acquire(core_id, var)
        if op == LOCK_RELEASE:
            return self._lock_release(core_id, var)
        if op in (BARRIER_WAIT_WITHIN_UNIT, BARRIER_WAIT_ACROSS_UNITS):
            return self._barrier_wait(core_id, var, info)
        if op == SEM_WAIT:
            return self._sem_wait(core_id, var, info)
        if op == SEM_POST:
            return self._sem_post(core_id, var)
        if op == COND_WAIT:
            return self._cond_wait(core_id, var, info)
        if op == COND_SIGNAL:
            return self._cond_signal(var, wake_all=False)
        if op == COND_BROADCAST:
            return self._cond_signal(var, wake_all=True)
        if op == RW_READ_ACQUIRE:
            return self._rw_read_acquire(core_id, var)
        if op == RW_READ_RELEASE:
            return self._rw_read_release(core_id, var)
        if op == RW_WRITE_ACQUIRE:
            return self._rw_write_acquire(core_id, var)
        if op == RW_WRITE_RELEASE:
            return self._rw_write_release(core_id, var)
        raise LogicError(f"unknown operation {op!r}")

    # ------------------------------------------------------------------
    def _lock_acquire(self, core_id: int, var) -> List[int]:
        st = self._state(var, "lock")
        if st.owner is None:
            st.owner = core_id
            return [core_id]
        st.queue.append(core_id)
        return []

    def _lock_release(self, core_id: int, var) -> List[int]:
        st = self._state(var, "lock")
        if st.owner != core_id:
            raise LogicError(
                f"core {core_id} released lock {var.name} owned by {st.owner}"
            )
        if st.queue:
            st.owner = st.queue.popleft()
            return [st.owner]
        st.owner = None
        return []

    def _barrier_wait(self, core_id: int, var, expected: int) -> List[int]:
        if expected < 1:
            raise LogicError("barrier needs a positive participant count")
        st = self._state(var, "barrier")
        st.queue.append(core_id)
        if len(st.queue) >= expected:
            woken = list(st.queue)
            st.queue.clear()
            return woken
        return []

    def _sem_wait(self, core_id: int, var, initial: int) -> List[int]:
        st = self._state(var, "semaphore")
        if not st.sem_initialized:
            st.sem_value = initial
            st.sem_initialized = True
        if st.sem_value > 0:
            st.sem_value -= 1
            return [core_id]
        st.queue.append(core_id)
        return []

    def _sem_post(self, core_id: int, var) -> List[int]:
        st = self._state(var, "semaphore")
        if st.queue:
            return [st.queue.popleft()]
        st.sem_value += 1
        return []

    def _cond_wait(self, core_id: int, var, lock_var) -> List[int]:
        st = self._state(var, "condvar")
        st.queue.append((core_id, lock_var))
        # pthread semantics: atomically release the associated lock.
        return self._lock_release(core_id, lock_var)

    def _cond_signal(self, var, wake_all: bool) -> List[int]:
        st = self._vars.get(var.addr)
        if st is None or st.kind != "condvar" or not st.queue:
            return []  # lost signal (POSIX)
        woken: List[int] = []
        while st.queue:
            core_id, lock_var = st.queue.popleft()
            # The woken waiter must re-acquire the lock before proceeding.
            woken.extend(self._lock_acquire(core_id, lock_var))
            if not wake_all:
                break
        return woken

    # ------------------------------------------------------------------
    # Reader-writer lock (fair FIFO: a queued writer blocks later readers)
    # ------------------------------------------------------------------
    def _rw_read_acquire(self, core_id: int, var) -> List[int]:
        st = self._state(var, "rwlock")
        writer_waiting = any(kind == "w" for kind, _ in st.queue)
        if st.writer is None and not writer_waiting:
            st.readers += 1
            return [core_id]
        st.queue.append(("r", core_id))
        return []

    def _rw_read_release(self, core_id: int, var) -> List[int]:
        st = self._state(var, "rwlock")
        if st.readers <= 0:
            raise LogicError(
                f"core {core_id} read-released {var.name} with no readers"
            )
        st.readers -= 1
        return self._rw_wake(st)

    def _rw_write_acquire(self, core_id: int, var) -> List[int]:
        st = self._state(var, "rwlock")
        if st.writer is None and st.readers == 0 and not st.queue:
            st.writer = core_id
            return [core_id]
        st.queue.append(("w", core_id))
        return []

    def _rw_write_release(self, core_id: int, var) -> List[int]:
        st = self._state(var, "rwlock")
        if st.writer != core_id:
            raise LogicError(
                f"core {core_id} write-released {var.name} owned by {st.writer}"
            )
        st.writer = None
        return self._rw_wake(st)

    def _rw_wake(self, st: _VarState) -> List[int]:
        woken: List[int] = []
        if st.writer is None and st.queue:
            if st.queue[0][0] == "w":
                if st.readers == 0:
                    _kind, core = st.queue.popleft()
                    st.writer = core
                    woken.append(core)
            else:
                while st.queue and st.queue[0][0] == "r":
                    _kind, core = st.queue.popleft()
                    st.readers += 1
                    woken.append(core)
        return woken

    # ------------------------------------------------------------------
    # Introspection (used by tests)
    # ------------------------------------------------------------------
    def lock_owner(self, var) -> Optional[int]:
        st = self._vars.get(var.addr)
        return st.owner if st else None

    def sem_value(self, var) -> int:
        st = self._vars.get(var.addr)
        return st.sem_value if st else 0

    def rw_readers(self, var) -> int:
        st = self._vars.get(var.addr)
        return st.readers if st else 0

    def rw_writer(self, var) -> Optional[int]:
        st = self._vars.get(var.addr)
        return st.writer if st else None

    def waiters(self, var) -> int:
        st = self._vars.get(var.addr)
        return len(st.queue) if st else 0
