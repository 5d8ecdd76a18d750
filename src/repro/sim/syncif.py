"""Interface between simulated cores and synchronization mechanisms.

Every mechanism (SynCron, its flat variant, Central, Hier, Ideal, the
MiSAR-style overflow alternatives) implements :class:`SyncMechanism`.  Cores
call :meth:`SyncMechanism.request` for blocking ``req_sync`` operations and
:meth:`SyncMechanism.request_async` for ``req_async`` releases; the mechanism
owns all message-travel and service timing and invokes the given callback
when the core may proceed.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable, Dict, Optional, Protocol, Tuple, runtime_checkable

from repro.sim.program import OP_KINDS
from repro.sim.stats import charge_transfers

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import WaitChannel


class SyncUsageError(RuntimeError):
    """A mechanism-agnostic misuse of the synchronization API.

    Raised by the shared admission check every mechanism funnels through
    (:meth:`MechanismBase._admit`) — most importantly for the single-use
    rule: one variable used as two different primitive kinds.
    """


def _no_waiter() -> None:
    """Shared no-op grant callback for fire-and-forget ``req_async``.

    Module-level so release-heavy hot paths don't allocate a fresh
    ``lambda: None`` per request.
    """


_var_ids = itertools.count()


class SyncVar:
    """A synchronization variable: an address plus primitive bookkeeping.

    ``create_syncvar()`` (Table 2) allocates one cache line in some unit's
    memory; the owning unit determines the *Master SE*.  The ``kind`` is set
    on first use and checked afterwards — using one variable as both a lock
    and a barrier is a programming error the real API also cannot express.
    """

    __slots__ = ("addr", "unit", "kind", "uid", "name")

    def __init__(self, addr: int, unit: int, name: str = ""):
        self.addr = addr
        self.unit = unit
        self.kind: Optional[str] = None
        self.uid = next(_var_ids)
        self.name = name or f"svar{self.uid}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SyncVar({self.name}, addr={self.addr:#x}, unit={self.unit})"


@runtime_checkable
class SyncMechanism(Protocol):
    """What a synchronization mechanism must provide to cores."""

    def request(
        self,
        core: "object",
        op: str,
        var: SyncVar,
        info: int,
        callback: Callable[[], None],
    ) -> None:
        """Blocking request; ``callback`` fires when the core may continue."""
        ...

    def request_async(self, core: "object", op: str, var: SyncVar, info: int) -> int:
        """Non-blocking request; returns the core-side issue cost in cycles."""
        ...


class MechanismBase:
    """Shared bookkeeping for mechanism implementations."""

    name = "base"
    #: the sync ops :meth:`request` implements; a baseline that models
    #: only what its experiments measure narrows this.
    OPS: Tuple[str, ...] = tuple(OP_KINDS)

    def __init__(self, system: "object"):
        self.system = system
        self.sim = system.sim
        self.config = system.config
        self.stats = system.stats
        self.interconnect = system.interconnect

    def _admit(self, op: str, var: SyncVar) -> None:
        """Shared per-request admission: every mechanism calls this first.

        Enforces the :class:`SyncVar` single-use rule (the ``kind`` pinned
        by the first operation must match all later ones — previously only
        the SynCron engine and the reference semantics checked it, so the
        software baselines silently accepted broken programs) and counts
        the request globally and against the requesting tenant.
        """
        kind = OP_KINDS[op]
        if var.kind is None:
            var.kind = kind
        elif var.kind != kind:
            raise SyncUsageError(
                f"variable {var.name} used as {var.kind} and now as {kind}"
            )
        self.stats.sync_requests_total += 1

    def end_run(self) -> None:
        """Called when ``NDPSystem.run_programs`` returns: fold any
        accounting the mechanism defers during a run (no-op here)."""

    # Subclasses override these two.
    def request(self, core, op, var, info, callback) -> None:  # pragma: no cover
        raise NotImplementedError

    def _unimplemented(self, op: str) -> NotImplementedError:
        """The error :meth:`request` raises for an op outside :attr:`OPS`."""
        return NotImplementedError(
            f"mechanism {self.name!r} does not implement {op!r}; it "
            f"implements {', '.join(self.OPS)}"
        )

    def request_async(self, core, op, var, info) -> int:
        """Default: model req_async as a request whose ACK nobody waits for."""
        self.request(core, op, var, info, callback=_no_waiter)
        return self.config.async_issue_cycles


class SpinWaitMixin:
    """Wait-channel plumbing shared by the spin baselines (rmw_spin, bakery).

    Both baselines used to model waiting as explicit poll -> fail ->
    reschedule event chains.  They now park on kernel
    :class:`~repro.sim.engine.WaitChannel` objects instead: one channel per
    ``(variable address, tag)`` pair, signalled whenever the guarded state
    the tag stands for actually changes.  A woken core re-checks its
    condition with one *real*, fully-charged attempt and re-parks if it
    lost the race, so contention behaviour (thundering herds, hotspot
    queueing at the home unit) is still resolved by real messages — only
    the provably-futile polls in between are elided, with their traffic
    and energy charged analytically (:meth:`_charge_elided_polls`).

    Signalling is conservative: a state change may wake waiters it cannot
    satisfy (spurious wakeups, resolved by the real re-check).  The rule
    that matters for liveness is the converse — any change a waiter could
    be waiting for *must* signal its channel — plus the ``seen`` snapshot
    protocol (see :meth:`WaitChannel.wait`) for the window between a failed
    attempt's observation and its wait registration.
    """

    def _init_spin_channels(self) -> None:
        self._spin_channels: Dict[Tuple[int, str], "WaitChannel"] = {}

    def _spin_channel(self, addr: int, tag: str) -> "WaitChannel":
        """The (lazily-created) wait-channel for ``(addr, tag)``.

        Signallers get-or-create too: the channel's ``signals`` counter
        must advance even when nobody is parked yet, or the ``seen``
        lost-wakeup guard could not see the miss.
        """
        key = (addr, tag)
        channel = self._spin_channels.get(key)
        if channel is None:
            channel = self.sim.channel(f"{self.name}:{addr:#x}:{tag}")
            self._spin_channels[key] = channel
        return channel

    def _spin_signal(self, addr: int, tag: str) -> None:
        self._spin_channel(addr, tag).signal()

    def _charge_elided_polls(self, core, var: "SyncVar", count: int,
                             request_bytes: int, response_bytes: int,
                             messages: int) -> None:
        """Analytic traffic/energy of ``count`` elided polls of ``var``.

        Each poll is what one explicit poll would have issued: a
        ``request_bytes`` request and a ``response_bytes`` response between
        the core and the home unit (``messages`` sync messages) plus
        one DRAM read there, charged as a row hit (spin polls hammer one
        open row).  Counters and energy match the explicit chain's;
        reservation state (banks, links, crossbar load) is deliberately
        untouched — see the model notes in EXPERIMENTS.md.
        """
        stats = self.stats
        home = var.unit
        local = core.unit_id == home
        if local:
            stats.sync_messages_local += messages * count
            link_hops = 0
        else:
            stats.sync_messages_global += messages * count
            link_hops = self.interconnect.remote_hops(core.unit_id, home)
        local_hops = self.config.local_hops
        charge_transfers(stats, request_bytes, count, local,
                         local_hops, link_hops)
        charge_transfers(stats, response_bytes, count, local,
                         local_hops, link_hops)
        stats.dram_reads += count
        stats.dram_row_hits += count
        stats.sync_memory_accesses += count
