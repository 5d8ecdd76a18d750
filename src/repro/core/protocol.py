"""SE message handlers: the SynCron protocol (paper Secs. 3.2, 4.2.4, 4.3).

:class:`ProtocolMixin` implements the control flow of Fig. 8 for every
opcode of Table 3.  It is mixed into
:class:`~repro.core.engine.SyncEngine`, which provides the infrastructure
(ST, indexing counters, syncronVar store, message send helpers and timing).

Handler conventions
-------------------

- *State objects* are :class:`~repro.core.sync_table.STEntry` instances,
  living either in the ST (common case) or inside a memory-resident
  ``syncronVar`` (overflow).  The same handlers run on both; the engine's
  :meth:`SyncEngine._get_state` decides where state lives and charges the
  Master SE's DRAM read+write on the memory path.
- ``local_waitlist`` holds core ids (condition variables hold
  ``(core, lock_var)`` pairs).  ``global_waitlist`` holds tagged tuples
  (:meth:`ProtocolMixin._remote_waiter`): ``("se", se_id)`` for aggregated
  hierarchical waiters and ``("ovf", core_id, se_id, info)`` for per-core
  waiters redirected by an overflowed local SE (or, for a partial barrier,
  by a stateless local SE).  :meth:`ProtocolMixin._send_to_waiter` answers
  either kind with the matching ``*_GLOBAL`` / ``*_OVERFLOW`` opcode.
- Grants to cores are *direct notifications* (Table 4): exactly one waiting
  core is woken per grant; nobody spins.

Shared handlers
---------------

Opcodes that mean the same thing at their receiver share one handler in
:data:`_HANDLERS`: a ``*_GLOBAL`` and a ``*_OVERFLOW`` request differ only
in the waiter tag they register; the three ``*_OVERFLOW`` grants all
forward the grant to the core; the condvar signal and broadcast opcodes
read ``wake_all`` from the opcode, and the rw-lock acquires read ``write``
from it.  Requests that only the Master SE serves (semaphore posts, condvar
signals and broadcasts, every rw-lock request) go through
:meth:`ProtocolMixin._on_at_master` and its :data:`_MASTER_FORWARDS` table:
a non-master SE forwards the local opcode as its global opcode, carrying
the requesting core and ``info`` only where the global handler reads them;
the Master SE runs the global opcode's handler on the local message.
"""

from __future__ import annotations

from repro.core.messages import Message, Opcode, OVERFLOW_OPCODES
from repro.sim.syncif import SyncUsageError


class ProtocolError(SyncUsageError):
    """A message arrived that a correct program could not have produced."""


class ProtocolMixin:
    """Opcode handlers; mixed into :class:`~repro.core.engine.SyncEngine`."""

    #: empty slots so slotted engines composed from this mixin stay dict-free.
    __slots__ = ()

    # ==================================================================
    # Dispatch
    # ==================================================================
    def dispatch(self, msg: Message) -> None:
        # _HANDLERS is built once at module load and maps every opcode an
        # engine receives, so the hot path is a single dict hit.  The
        # SE -> core *_GRANT_LOCAL / BARRIER_DEPART_LOCAL opcodes have no
        # handler by design: send_grant models them without a Message.
        # Nor do the three *_OVERFLOW opcodes nothing sends (SEM_POST,
        # COND_SIGNAL, COND_BROAD; see Opcode).
        try:
            handler = _HANDLERS[msg.opcode]
        except KeyError:  # pragma: no cover - kernel misuse
            raise ProtocolError(f"no handler for {msg.opcode}") from None
        handler(self, msg)

    def _on_at_master(self, msg: Message) -> None:
        """A request only the Master SE serves: forward it there, or serve
        it as the global opcode's handler does."""
        global_opcode, carries = _MASTER_FORWARDS[msg.opcode]
        if self.is_master(msg.var):
            _HANDLERS[global_opcode](self, msg)
        elif carries:
            self.send_se(self.master_of(msg.var), global_opcode, msg.var,
                         core=msg.core, info=msg.info)
        else:
            self.send_se(self.master_of(msg.var), global_opcode, msg.var)

    def _remote_waiter(self, state, msg: Message) -> tuple:
        """The global-waitlist tag of a request from another SE: the SE for
        an aggregated request, else the core (and its ``info``).  An
        overflow request also records its SE as overflowed."""
        if msg.core is None:
            return ("se", msg.src_se)
        if msg.opcode in OVERFLOW_OPCODES:
            state.overflow_ses.add(msg.src_se)
        return ("ovf", msg.core, msg.src_se, msg.info)

    def _send_to_waiter(self, item: tuple, var, global_opcode: Opcode,
                        overflow_opcode: Opcode) -> None:
        """Answer one global-waitlist entry: its SE, or the SE that
        redirected its core (which forwards the answer to the core)."""
        if item[0] == "se":
            self.send_se(item[1], global_opcode, var)
        else:
            self.send_se(item[2], overflow_opcode, var, core=item[1],
                         info=item[3])

    def _on_grant_overflow(self, msg: Message) -> None:
        # The overflowed SE simply forwards the grant to its local core.
        self.send_grant(msg.core)

    # ==================================================================
    # Locks (Sec. 3.2 walk-through)
    # ==================================================================
    def _on_lock_acquire_local(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return  # redirected to the Master SE by the overflow path
        state.local_waitlist.append(msg.core)
        if self.is_master(msg.var):
            self._lock_try_grant_master(state, msg.var, in_memory)
        else:
            if state.has_control and state.local_owner is None:
                self._lock_grant_local(state, msg.var)
            elif not state.has_control and not state.pending_global:
                state.pending_global = True
                self.send_se(self.master_of(msg.var), Opcode.LOCK_ACQUIRE_GLOBAL, msg.var)

    def _on_lock_acquire_remote(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        state.global_waitlist.append(self._remote_waiter(state, msg))
        self._lock_try_grant_master(state, msg.var, in_memory)

    def _lock_try_grant_master(self, state, var, in_memory: bool) -> None:
        """Master-side arbitration: local waiters first (Sec. 3.2), unless
        the Sec. 4.4.2 fairness counter forces a transfer."""
        if state.local_owner is not None or state.owner_se is not None:
            return
        threshold = self.config.fairness_threshold
        force_transfer = (
            threshold > 0
            and state.local_grant_counter >= threshold
            and state.global_waitlist
        )
        if state.local_waitlist and not force_transfer:
            self._lock_grant_local(state, var)
        elif state.global_waitlist:
            state.local_grant_counter = 0
            state.owner_se = state.global_waitlist.popleft()
            self._send_to_waiter(state.owner_se, var, Opcode.LOCK_GRANT_GLOBAL,
                                 Opcode.LOCK_GRANT_OVERFLOW)
        else:
            self._maybe_free_state(state, var, in_memory)

    def _lock_grant_local(self, state, var) -> None:
        core = state.local_waitlist.popleft()
        state.local_owner = core
        state.local_grant_counter += 1
        self.send_grant(core)

    def _on_lock_grant_global(self, msg: Message) -> None:
        entry = self.st.entries.get(msg.var.addr)
        if entry is None:
            raise ProtocolError(f"lock grant for unknown variable {msg.var.name}")
        entry.has_control = True
        entry.pending_global = False
        if entry.local_owner is None and entry.local_waitlist:
            self._lock_grant_local(entry, msg.var)

    def _on_lock_release_local(self, msg: Message) -> None:
        entry = self.st.entries.get(msg.var.addr)
        if entry is None:
            self._lock_release_no_entry(msg)
            return
        if entry.local_owner != msg.core:
            if not self.is_master(msg.var):
                # The core was granted through the overflow path (no local
                # entry existed then); a fresh ST entry has appeared since.
                # The Master SE still tracks the overflow ownership, so the
                # release must travel the overflow route.
                self._redirect_overflow(msg, Opcode.LOCK_RELEASE_OVERFLOW)
                return
            raise ProtocolError(
                f"core {msg.core} released lock {msg.var.name} owned by "
                f"{entry.local_owner}"
            )
        entry.local_owner = None
        if self.is_master(msg.var):
            self._lock_try_grant_master(entry, msg.var, in_memory=False)
            return
        # Non-master: keep serving local requests while any exist
        # (Sec. 3.2), unless fairness forces handing control back.
        threshold = self.config.fairness_threshold
        force_transfer = threshold > 0 and entry.local_grant_counter >= threshold
        if entry.local_waitlist and not force_transfer:
            self._lock_grant_local(entry, msg.var)
            return
        entry.has_control = False
        entry.local_grant_counter = 0
        self.send_se(self.master_of(msg.var), Opcode.LOCK_RELEASE_GLOBAL, msg.var)
        if entry.local_waitlist:
            # fairness transfer with waiters left: immediately re-request.
            entry.pending_global = True
            self.send_se(self.master_of(msg.var), Opcode.LOCK_ACQUIRE_GLOBAL, msg.var)
        else:
            self.st.release_if_idle(entry)

    def _lock_release_no_entry(self, msg: Message) -> None:
        """A release with no ST entry: the variable is memory-serviced."""
        if self.is_master(msg.var):
            state, in_memory = self._get_state(msg, acquire=False)
            if state is None:
                return
            if state.local_owner != msg.core:
                raise ProtocolError(
                    f"overflow release of {msg.var.name} by non-owner {msg.core}"
                )
            state.local_owner = None
            self._lock_try_grant_master(state, msg.var, in_memory)
        else:
            self._redirect_overflow(msg, Opcode.LOCK_RELEASE_OVERFLOW)

    def _on_lock_release_remote(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=False)
        if state is None:
            return
        if msg.opcode is Opcode.LOCK_RELEASE_OVERFLOW:
            releaser = ("ovf", msg.core)
        else:
            releaser = ("se", msg.src_se)
        if state.owner_se is None or state.owner_se[:2] != releaser:
            raise ProtocolError(
                f"{msg.opcode.name} of {msg.var.name} by {releaser}, owner "
                f"is {state.owner_se}"
            )
        state.owner_se = None
        self._lock_try_grant_master(state, msg.var, in_memory)

    # ==================================================================
    # Barriers
    # ==================================================================
    def _on_barrier_wait_within_unit(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return  # redirected
        state.expected = msg.info
        state.arrived += 1
        state.local_waitlist.append(msg.core)
        if state.arrived >= state.expected:
            self._barrier_complete(state, msg.var, in_memory)

    def _on_barrier_wait_across_units(self, msg: Message) -> None:
        total = msg.info
        hierarchical = total >= self.mech.total_clients
        if not hierarchical and not self.is_master(msg.var):
            # One-level communication (Sec. 4.1.2): when fewer cores than the
            # whole system participate, local SEs statelessly re-direct all
            # messages to the Master SE, which coordinates globally.
            self.send_se(
                self.master_of(msg.var), Opcode.BARRIER_WAIT_GLOBAL,
                msg.var, core=msg.core, info=total,
            )
            return
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return  # redirected via the overflow path
        state.expected = total
        state.local_waitlist.append(msg.core)
        state.arrived += 1
        if self.is_master(msg.var):
            state.table_info += 1
            if state.table_info >= total:
                self._barrier_complete(state, msg.var, in_memory)
        else:
            # Two-level: aggregate; one global message per unit (Sec. 3.2).
            if state.arrived >= self.mech.clients_in_unit(self.unit):
                self.send_se(
                    self.master_of(msg.var), Opcode.BARRIER_WAIT_GLOBAL,
                    msg.var, info=(state.arrived, total),
                )

    def _on_barrier_wait_remote(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        if msg.core is None:
            count, total = msg.info  # an SE's aggregated arrivals
        else:
            # one core, redirected by a one-level or an overflowed SE;
            # info is the barrier's total participant count.
            count, total = 1, msg.info
        state.expected = total
        state.global_waitlist.append(self._remote_waiter(state, msg))
        state.table_info += count
        if state.expected and state.table_info >= state.expected:
            self._barrier_complete(state, msg.var, in_memory)

    def _barrier_complete(self, state, var, in_memory: bool) -> None:
        """All participants arrived: notify everyone, then free the state."""
        for core in state.local_waitlist:
            self.send_grant(core)
        state.local_waitlist.clear()
        for item in state.global_waitlist:
            self._send_to_waiter(item, var, Opcode.BARRIER_DEPART_GLOBAL,
                                 Opcode.BARRIER_DEPARTURE_OVERFLOW)
        state.global_waitlist.clear()
        state.arrived = 0
        state.expected = 0
        state.table_info = 0
        self._maybe_free_state(state, var, in_memory)

    def _on_barrier_depart_global(self, msg: Message) -> None:
        entry = self.st.entries.get(msg.var.addr)
        if entry is None:
            raise ProtocolError(f"barrier departure for unknown {msg.var.name}")
        for core in entry.local_waitlist:
            self.send_grant(core)
        entry.local_waitlist.clear()
        entry.arrived = 0
        entry.expected = 0
        self.st.release_if_idle(entry)

    # ==================================================================
    # Semaphores
    # ==================================================================
    def _on_sem_wait_local(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True, sem_init=msg.info)
        if state is None:
            return  # redirected
        if self.is_master(msg.var):
            if state.table_info > 0:
                state.table_info -= 1
                self.send_grant(msg.core)
                self._maybe_free_sem(state, msg.var, in_memory)
            else:
                state.local_waitlist.append(msg.core)
        else:
            state.local_waitlist.append(msg.core)
            self.send_se(
                self.master_of(msg.var), Opcode.SEM_WAIT_GLOBAL, msg.var,
                info=msg.info,
            )

    def _on_sem_wait_remote(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True, sem_init=msg.info)
        if state is None:
            return
        waiter = self._remote_waiter(state, msg)
        if state.table_info > 0:
            state.table_info -= 1
            self._send_to_waiter(waiter, msg.var, Opcode.SEM_GRANT_GLOBAL,
                                 Opcode.SEM_GRANT_OVERFLOW)
            self._maybe_free_sem(state, msg.var, in_memory)
        else:
            state.global_waitlist.append(waiter)

    def _on_sem_grant_global(self, msg: Message) -> None:
        entry = self.st.entries.get(msg.var.addr)
        if entry is None or not entry.local_waitlist:
            raise ProtocolError(f"semaphore grant with no local waiter ({msg.var.name})")
        self.send_grant(entry.local_waitlist.popleft())
        self.st.release_if_idle(entry)

    def _on_sem_post(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=False)
        if state is None:
            return
        if state.local_waitlist:
            self.send_grant(state.local_waitlist.popleft())
        elif state.global_waitlist:
            self._send_to_waiter(state.global_waitlist.popleft(), msg.var,
                                 Opcode.SEM_GRANT_GLOBAL, Opcode.SEM_GRANT_OVERFLOW)
        else:
            state.table_info += 1
        self._maybe_free_sem(state, msg.var, in_memory)

    def _maybe_free_sem(self, state, var, in_memory: bool) -> None:
        """A semaphore's state is releasable once it is back at its initial
        value with nobody waiting (the count would otherwise be lost); a
        memory-resident one stays until it drains."""
        initial = self.mech.sem_initial.get(var.addr)
        if (
            initial is not None
            and state.table_info == initial
            and not state.local_waitlist
            and not state.global_waitlist
        ):
            state.table_info = 0
            self._maybe_free_state(state, var, in_memory)

    # ==================================================================
    # Condition variables
    # ==================================================================
    def _on_cond_wait_local(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            # Redirected to the Master SE (the redirect released the lock)
            # or handed whole to another engine, whose run of this handler
            # releases it.
            return
        lock_var = msg.info  # the associated lock (Fig. 5 MessageInfo)
        state.local_waitlist.append((msg.core, lock_var))
        if not self.is_master(msg.var):
            self.send_se(self.master_of(msg.var), Opcode.COND_WAIT_GLOBAL, msg.var)
        self._release_cond_lock(msg)

    def _release_cond_lock(self, msg: Message) -> None:
        """Release a condvar waiter's lock (pthread_cond_wait semantics) in
        the SE service slot that enqueued it, so no signal can slip
        between enqueue and release."""
        self._internal_request(
            Message(Opcode.LOCK_RELEASE_LOCAL, msg.info, core=msg.core)
        )

    def _on_cond_wait_remote(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        state.global_waitlist.append(self._remote_waiter(state, msg))

    def _on_cond_signal(self, msg: Message) -> None:
        state, in_memory = self._find_state(msg)
        if state is None:
            return  # no waiters: the signal is lost (POSIX semantics)
        wake_all = msg.opcode in _BROADCASTS
        while self._cond_wake_one(state, msg.var) and wake_all:
            pass
        self._maybe_free_state(state, msg.var, in_memory)

    def _cond_wake_one(self, state, var) -> bool:
        """Wake one waiter: locals first, then remote SEs (priority as in
        the lock).  Returns False when nobody was waiting."""
        if state.local_waitlist:
            core, lock_var = state.local_waitlist.popleft()
            self._internal_request(
                Message(Opcode.LOCK_ACQUIRE_LOCAL, lock_var, core=core)
            )
            return True
        if state.global_waitlist:
            self._send_to_waiter(state.global_waitlist.popleft(), var,
                                 Opcode.COND_GRANT_GLOBAL, Opcode.COND_GRANT_OVERFLOW)
            return True
        return False

    def _on_cond_grant_global(self, msg: Message) -> None:
        entry = self.st.entries.get(msg.var.addr)
        if entry is None or not entry.local_waitlist:
            raise ProtocolError(f"condvar grant with no local waiter ({msg.var.name})")
        core, lock_var = entry.local_waitlist.popleft()
        self.st.release_if_idle(entry)
        self._internal_request(
            Message(Opcode.LOCK_ACQUIRE_LOCAL, lock_var, core=core)
        )

    def _on_cond_grant_overflow(self, msg: Message) -> None:
        # Re-acquire the associated lock on behalf of the woken core.
        self._internal_request(
            Message(Opcode.LOCK_ACQUIRE_LOCAL, msg.info, core=msg.core)
        )

    # ==================================================================
    # Reader-writer locks (generality extension; cf. LCU in Sec. 4.5)
    # ==================================================================
    # Master-coordinated one-level scheme, like the across-units barrier
    # with a partial participant set (Sec. 4.1.2): local SEs statelessly
    # forward requests to the Master SE (_on_at_master), which queues and
    # grants.  State reuses the ST entry: ``table_info`` counts active
    # readers, ``local_owner`` holds the active writer, ``global_waitlist``
    # is the fair FIFO of ("r"/"w", core) waiters — a writer in line blocks
    # later readers, so writers cannot starve.

    def _on_rw_acquire(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=True)
        if state is None:
            return
        queue = state.global_waitlist
        if msg.opcode in _RW_WRITE_ACQUIRES:
            if state.local_owner is None and state.table_info == 0 and not queue:
                state.local_owner = msg.core
                self.send_grant(msg.core)
            else:
                queue.append(("w", msg.core))
        else:
            writer_waiting = any(item[0] == "w" for item in queue)
            if state.local_owner is None and not writer_waiting:
                state.table_info += 1
                self.send_grant(msg.core)
            else:
                queue.append(("r", msg.core))

    def _on_rw_read_release(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=False)
        if state is None:
            return
        if state.table_info <= 0:
            raise ProtocolError(
                f"read release of {msg.var.name} with no active readers"
            )
        state.table_info -= 1
        self._rw_wake(state, msg.var, in_memory)

    def _on_rw_write_release(self, msg: Message) -> None:
        state, in_memory = self._get_state(msg, acquire=False)
        if state is None:
            return
        if state.local_owner != msg.core:
            raise ProtocolError(
                f"write release of {msg.var.name} by core {msg.core}, "
                f"owner is {state.local_owner}"
            )
        state.local_owner = None
        self._rw_wake(state, msg.var, in_memory)

    def _rw_wake(self, state, var, in_memory: bool) -> None:
        """Grant the FIFO head: one writer, or every leading reader; then
        free the state once truly idle (readers are tracked in
        ``table_info``, which blocks the generic release check)."""
        queue = state.global_waitlist
        if state.local_owner is None and queue:
            if queue[0][0] == "w":
                if state.table_info == 0:
                    _kind, core = queue.popleft()
                    state.local_owner = core
                    self.send_grant(core)
            else:
                while queue and queue[0][0] == "r":
                    _kind, core = queue.popleft()
                    state.table_info += 1
                    self.send_grant(core)
        if state.table_info == 0:
            self._maybe_free_state(state, var, in_memory)

    # ==================================================================
    # Indexing-counter maintenance
    # ==================================================================
    def _on_decrease_indexing_counter(self, msg: Message) -> None:
        self.end_overflow_episode(msg.var.addr)


_BROADCASTS = frozenset({Opcode.COND_BROAD_LOCAL, Opcode.COND_BROAD_GLOBAL})
_RW_WRITE_ACQUIRES = frozenset({Opcode.RW_WRITE_ACQUIRE_LOCAL,
                                Opcode.RW_WRITE_ACQUIRE_GLOBAL})

#: local opcode served only at the Master SE -> (the global opcode a
#: non-master SE forwards it as, whether the forward carries core and info).
_MASTER_FORWARDS = {
    Opcode.SEM_POST_LOCAL: (Opcode.SEM_POST_GLOBAL, False),
    Opcode.COND_SIGNAL_LOCAL: (Opcode.COND_SIGNAL_GLOBAL, False),
    Opcode.COND_BROAD_LOCAL: (Opcode.COND_BROAD_GLOBAL, False),
    Opcode.RW_READ_ACQUIRE_LOCAL: (Opcode.RW_READ_ACQUIRE_GLOBAL, True),
    Opcode.RW_WRITE_ACQUIRE_LOCAL: (Opcode.RW_WRITE_ACQUIRE_GLOBAL, True),
    Opcode.RW_READ_RELEASE_LOCAL: (Opcode.RW_READ_RELEASE_GLOBAL, True),
    Opcode.RW_WRITE_RELEASE_LOCAL: (Opcode.RW_WRITE_RELEASE_GLOBAL, True),
}

_P = ProtocolMixin
_HANDLERS = {
    **dict.fromkeys(_MASTER_FORWARDS, _P._on_at_master),
    **dict.fromkeys((Opcode.LOCK_GRANT_OVERFLOW, Opcode.SEM_GRANT_OVERFLOW,
                     Opcode.BARRIER_DEPARTURE_OVERFLOW), _P._on_grant_overflow),
    Opcode.LOCK_ACQUIRE_LOCAL: _P._on_lock_acquire_local,
    Opcode.LOCK_ACQUIRE_GLOBAL: _P._on_lock_acquire_remote,
    Opcode.LOCK_ACQUIRE_OVERFLOW: _P._on_lock_acquire_remote,
    Opcode.LOCK_GRANT_GLOBAL: _P._on_lock_grant_global,
    Opcode.LOCK_RELEASE_LOCAL: _P._on_lock_release_local,
    Opcode.LOCK_RELEASE_GLOBAL: _P._on_lock_release_remote,
    Opcode.LOCK_RELEASE_OVERFLOW: _P._on_lock_release_remote,
    Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT: _P._on_barrier_wait_within_unit,
    Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS: _P._on_barrier_wait_across_units,
    Opcode.BARRIER_WAIT_GLOBAL: _P._on_barrier_wait_remote,
    Opcode.BARRIER_WAIT_OVERFLOW: _P._on_barrier_wait_remote,
    Opcode.BARRIER_DEPART_GLOBAL: _P._on_barrier_depart_global,
    Opcode.SEM_WAIT_LOCAL: _P._on_sem_wait_local,
    Opcode.SEM_WAIT_GLOBAL: _P._on_sem_wait_remote,
    Opcode.SEM_WAIT_OVERFLOW: _P._on_sem_wait_remote,
    Opcode.SEM_GRANT_GLOBAL: _P._on_sem_grant_global,
    Opcode.SEM_POST_GLOBAL: _P._on_sem_post,
    Opcode.COND_WAIT_LOCAL: _P._on_cond_wait_local,
    Opcode.COND_WAIT_GLOBAL: _P._on_cond_wait_remote,
    Opcode.COND_WAIT_OVERFLOW: _P._on_cond_wait_remote,
    **dict.fromkeys((Opcode.COND_SIGNAL_GLOBAL, Opcode.COND_BROAD_GLOBAL),
                    _P._on_cond_signal),
    Opcode.COND_GRANT_GLOBAL: _P._on_cond_grant_global,
    Opcode.COND_GRANT_OVERFLOW: _P._on_cond_grant_overflow,
    Opcode.RW_READ_ACQUIRE_GLOBAL: _P._on_rw_acquire,
    Opcode.RW_WRITE_ACQUIRE_GLOBAL: _P._on_rw_acquire,
    Opcode.RW_READ_RELEASE_GLOBAL: _P._on_rw_read_release,
    Opcode.RW_WRITE_RELEASE_GLOBAL: _P._on_rw_write_release,
    Opcode.DECREASE_INDEXING_COUNTER: _P._on_decrease_indexing_counter,
}
