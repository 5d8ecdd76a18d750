"""MiSAR-style non-integrated overflow management (paper Sec. 6.7.3 / Fig. 23).

SynCron's integrated scheme falls back to main memory at the Master SE.
MiSAR instead *aborts* hardware synchronization on overflow: the accelerator
notifies the participating cores to synchronize through an alternative
software solution, and when they finish they notify the accelerator to
switch back.  The paper adapts that scheme to SynCron and evaluates two
alternative software solutions:

- ``SynCron_CentralOvrfl`` — one dedicated NDP core handles *all* overflowed
  variables (a single software server);
- ``SynCron_DistribOvrfl``  — one NDP core per NDP unit handles overflowed
  variables whose home is that unit.

We model the scheme as follows.  When the Master SE cannot buffer a variable
(ST full), it (1) broadcasts abort/switch notifications (network traffic to
every unit), (2) marks the variable as fallback-serviced, and (3) forwards
this and all subsequent messages for it to the fallback *server core*, which
services them with the software-server cost model
(:class:`~repro.sync.server.ServerEngine`).  When the fallback server's
state for the variable drains, it notifies the SEs to switch back to
hardware (more traffic) and the variable becomes ST-eligible again.  This
reproduces the costs the paper attributes to non-integrated overflow: extra
hops, software service latency, switch-notification traffic, and (for
CentralOvrfl) serialization at a single fallback server.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.core.engine import SynCronMechanism, SyncEngine
from repro.core.messages import LOCAL_OPCODES, Message, OVERFLOW_OPCODES, RESPONSE_BYTES
from repro.sync.server import ServerEngine


class _AbortModeSE(SyncEngine):
    """An SE whose master-side overflow path aborts to a fallback server."""

    def _get_state(self, msg: Message, acquire: bool, sem_init: Optional[int] = None):
        addr = msg.var.addr
        if self.is_master(msg.var) and self.mech.is_fallback_var(addr):
            self.mech.forward_to_fallback(self, msg)
            return None, False
        entry = self.st.entries.get(addr)
        if entry is not None:
            return entry, False
        if not self.is_master(msg.var):
            if (
                self.st.is_full
                or addr in self._redirected
                or self.counters.is_memory_serviced(addr)
            ):
                self._redirect_overflow(msg)
                return None, False
            return self._allocate(msg.var, sem_init)
        # Master SE with no entry.
        if not self.st.is_full:
            return self._allocate(msg.var, sem_init)
        # Overflow: abort to the alternative software solution.
        self.mech.begin_fallback(self, msg)
        return None, False

    def _find_state(self, msg: Message):
        # A fallback-serviced variable's state (a condvar's waiters) lives
        # at the fallback server: the signal must go there.
        if self.is_master(msg.var) and self.mech.is_fallback_var(msg.var.addr):
            self.mech.forward_to_fallback(self, msg)
            return None, False
        return super()._find_state(msg)


class _FallbackServer(ServerEngine):
    """The software server that services overflowed variables (flat)."""

    def is_master(self, var) -> bool:
        return True

    def master_of(self, var) -> int:
        return self.se_id

    def dispatch(self, msg: Message) -> None:
        addr = msg.var.addr
        left = self.mech._inflight.get(addr, 0) - 1
        self.mech._inflight[addr] = max(left, 0)
        super().dispatch(msg)
        if left <= 0 and addr not in self.st.entries:
            # The last in-flight message has been processed and the state is
            # gone: now the switch back to hardware is safe.
            self.mech.on_fallback_drained(self, msg.var)

    def _charge_state_access(self, var) -> None:
        """The alternative software solution keeps synchronization variables
        in shared read-write memory, which the NDP system's software-assisted
        coherence makes uncacheable (Sec. 4.5): every access goes to DRAM."""
        accesses = self.config.server_handler_accesses
        for i in range(accesses):
            now = self.sim.now + self._extra
            self._extra += self.mech.memsys.access(
                self.unit,
                None,
                var.addr,
                is_write=(i == accesses - 1),
                cacheable=False,
                now=now,
                for_sync=True,
            )

    def _maybe_free_state(self, state, var, in_memory: bool) -> None:
        super()._maybe_free_state(state, var, in_memory)
        if var.addr not in self.st.entries and self.mech._inflight.get(var.addr, 0) == 0:
            self.mech.on_fallback_drained(self, var)


class _AbortOverflowMechanism(SynCronMechanism):
    """Shared machinery for the two non-integrated overflow variants."""

    def __init__(self, system):
        super().__init__(system)
        self._fallback_vars: Set[int] = set()
        #: forwarded-but-not-yet-processed message count per variable; the
        #: switch back to hardware must wait until this drains, or a grant
        #: issued by the fallback would be released into thin air.
        self._inflight: Dict[int, int] = {}
        self._fallbacks = self._make_fallbacks()

    def _make_engines(self):
        return [_AbortModeSE(self, u) for u in range(self.config.num_units)]

    # Subclasses provide the fallback topology. -------------------------
    def _make_fallbacks(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def _fallback_for(self, var) -> _FallbackServer:  # pragma: no cover
        raise NotImplementedError

    # ------------------------------------------------------------------
    def is_fallback_var(self, addr: int) -> bool:
        return addr in self._fallback_vars

    def begin_fallback(self, se: _AbortModeSE, msg: Message) -> None:
        """First overflow for this variable: abort + switch to software."""
        self._fallback_vars.add(msg.var.addr)
        self._broadcast_switch(se)
        self.forward_to_fallback(se, msg)

    def _broadcast_switch(self, se: SyncEngine) -> None:
        """Abort/resume notifications to every unit's cores (traffic only)."""
        now = self.sim.now
        for unit in range(self.config.num_units):
            self.send(se.unit, unit, now, RESPONSE_BYTES)

    def forward_to_fallback(self, se: SyncEngine, msg: Message) -> None:
        server = self._fallback_for(msg.var)
        addr = msg.var.addr
        self._inflight[addr] = self._inflight.get(addr, 0) + 1
        depart = self.sim.now + se._extra

        core_originated = msg.opcode in LOCAL_OPCODES or msg.opcode in OVERFLOW_OPCODES
        if core_originated:
            if msg.opcode in LOCAL_OPCODES:
                # Overflow-opcode messages were already counted as overflowed
                # requests by the local SE that re-directed them.
                self.stats.st_overflow_requests += 1
            # MiSAR-style abort: the SE tells the requesting core to use the
            # alternative solution, and the core re-issues the request to the
            # fallback server itself (Sec. 6.7.3) — one extra round trip per
            # request, plus a switch-back notification afterwards.
            origin = self.core_unit(msg.core) if msg.core is not None else se.unit
            aborted = self.send(se.unit, origin, depart, RESPONSE_BYTES)
            arrival = self.send(origin, server.unit, aborted, msg.bytes)
            # switch-back notification core -> SE, charged as traffic.
            self.send(origin, se.unit, aborted, RESPONSE_BYTES)
        else:
            arrival = self.send(se.unit, server.unit, depart, msg.bytes)
        server.receive(msg, arrival, sender=se.sender_token)

    def inject_internal(self, se, msg: Message) -> None:
        """Condvar-driven lock release/re-acquire must run hierarchically at
        the involved core's local SE, even when the condvar itself is being
        serviced by a fallback server."""
        if isinstance(se, _FallbackServer):
            target = self.ses[self.core_unit(msg.core)]
            arrival = self.send(se.unit, target.unit, self.sim.now + se._extra,
                                msg.bytes)
            target.receive(msg, arrival, sender=se.sender_token)
            return
        super().inject_internal(se, msg)

    def on_fallback_drained(self, server: _FallbackServer, var) -> None:
        """The variable's software state drained: switch back to hardware."""
        if var.addr in self._fallback_vars:
            self._fallback_vars.discard(var.addr)
            self._broadcast_switch(server)


class SynCronCentralOverflowMechanism(_AbortOverflowMechanism):
    """Fig. 23 ``SynCron_CentralOvrfl``: one fallback server for everything."""

    name = "syncron_central_ovrfl"

    def _make_fallbacks(self):
        return [_FallbackServer(self, se_id=self.config.num_units, unit=0)]

    def _fallback_for(self, var) -> _FallbackServer:
        return self._fallbacks[0]


class SynCronDistribOverflowMechanism(_AbortOverflowMechanism):
    """Fig. 23 ``SynCron_DistribOvrfl``: one fallback server per NDP unit,
    handling the variables homed in its unit."""

    name = "syncron_distrib_ovrfl"

    def _make_fallbacks(self):
        return [
            _FallbackServer(self, se_id=self.config.num_units + u, unit=u)
            for u in range(self.config.num_units)
        ]

    def _fallback_for(self, var) -> _FallbackServer:
        return self._fallbacks[var.unit]
