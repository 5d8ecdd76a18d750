"""Server-core engine: an NDP core acting as a synchronization server.

The Central and Hier baselines (Sec. 5 "Comparison Points") dedicate NDP
*cores* to coordinate synchronization: clients send hardware messages, the
server core runs a software handler that updates waiting lists and
synchronization variables through its own memory hierarchy (private L1,
then DRAM).

We model a server core by reusing the SynCron protocol engine (the message
semantics are the same — that is the paper's point of comparison) with a
different cost model:

- per-message service time is the software handler's instruction count
  (``config.server_handler_instructions`` at 1 IPC) instead of the SE's
  12 SE-cycles;
- every handled message additionally performs
  ``config.server_handler_accesses`` loads/stores to the synchronization
  state through the server's private L1 (missing to DRAM), instead of
  hitting the 1-cycle ST;
- the table is effectively unbounded (state lives in cacheable memory), so
  the ST-overflow machinery never triggers.

For state the server does not own (a remote variable handled by the Central
server, or a local server's private bookkeeping for a remote variable), the
accessed address determines whether the L1 miss crosses the inter-unit link.
"""

from __future__ import annotations

from typing import Dict

from repro.core.engine import SyncEngine
from repro.sim.cache import L1Cache


class ServerEngine(SyncEngine):
    """A software synchronization server running on one NDP core."""

    #: effectively unlimited state capacity (regular memory, not an ST).
    UNBOUNDED_ENTRIES = 1 << 30

    def __init__(self, mech, se_id: int, unit: int):
        super().__init__(mech, se_id)
        self.unit = unit
        config = mech.config
        self.st.capacity = self.UNBOUNDED_ENTRIES
        self.service_cycles = config.server_handler_instructions
        self.l1 = L1Cache(
            config.l1_size_bytes,
            config.l1_ways,
            config.cache_line_bytes,
            mech.stats,
            hit_cycles=config.l1_hit_cycles,
        )
        self._shadow: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def dispatch(self, msg) -> None:
        self._charge_state_access(msg.var)
        super().dispatch(msg)

    def _state_address(self, var) -> int:
        """Where this server keeps its bookkeeping for ``var``.

        A server keeps the variable itself when it is the coordinator for
        it; a local (non-master) Hier server keeps a private shadow copy in
        its own unit's memory.
        """
        if self.is_master(var):
            return var.addr
        shadow = self._shadow.get(var.addr)
        if shadow is None:
            shadow = self.mech.system.addrmap.alloc(
                self.unit, self.config.cache_line_bytes,
                align=self.config.cache_line_bytes,
            )
            self._shadow[var.addr] = shadow
        return shadow

    def _charge_state_access(self, var) -> None:
        """The software handler's loads/stores to synchronization state.

        The handler makes ``server_handler_accesses`` back-to-back accesses
        to one line, the last a store.  Only the first goes through
        :meth:`MemorySystem.access <repro.sim.memsys.MemorySystem.access>`:
        it leaves the line resident at the MRU end of its set (a miss
        allocates it), so every later access is an L1 hit on that line,
        booked here in one step with the last one dirtying it.  Latency,
        counters and cache state equal one ``access`` call per access.
        """
        addr = self._state_address(var)
        accesses = self.config.server_handler_accesses
        if accesses <= 0:
            return
        self._extra += self.mech.memsys.access(
            self.unit, self.l1, addr, accesses == 1, True,
            self.sim.now + self._extra, 8, True,   # size, for_sync
        )
        rest = accesses - 1
        if rest:
            self.stats.sync_memory_accesses += rest
            self._extra += self.l1.hit_resident(addr, rest, dirty=True)
