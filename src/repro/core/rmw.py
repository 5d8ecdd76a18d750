"""Atomic read-modify-write extension (paper Sec. 4.4.1).

The paper notes SynCron extends naturally to simple atomic rmw operations by
adding a lightweight ALU to the SE, with the Master SE executing the
operation for a variable based on its address.  This module implements that
future-work extension: a small ALU opcode set and an :class:`RmwExtension`
that routes rmw requests to the Master SE, charges the SE service time plus
one ALU cycle, and maintains the memory values.

It deliberately bypasses the ST (rmw needs no waiting list — each request
completes immediately at the Master SE), which is why the paper calls it
straightforward.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.core.messages import REQUEST_BYTES, RESPONSE_BYTES

#: opcode -> pure function (current_value, operand) -> new_value.
RMW_OPS: Dict[str, Callable[[int, int], int]] = {
    "fetch_add": lambda cur, operand: cur + operand,
    "fetch_and": lambda cur, operand: cur & operand,
    "fetch_or": lambda cur, operand: cur | operand,
    "fetch_xor": lambda cur, operand: cur ^ operand,
    "swap": lambda cur, operand: operand,
    "fetch_max": lambda cur, operand: max(cur, operand),
    "fetch_min": lambda cur, operand: min(cur, operand),
}

#: one ALU cycle at the SE's 1 GHz clock, in core cycles.
ALU_CORE_CYCLES = 3


class RmwExtension:
    """SE-side atomic rmw operations for a SynCron-style mechanism."""

    def __init__(self, mechanism):
        self.mech = mechanism
        self.sim = mechanism.sim
        self.stats = mechanism.stats
        self._values: Dict[int, int] = {}
        self.operations_executed = 0

    # ------------------------------------------------------------------
    def value(self, addr: int) -> int:
        return self._values.get(addr, 0)

    def rmw(self, core, addr: int, op: str, operand: int,
            callback: Callable[[int], None]) -> None:
        """Execute ``op`` atomically at the Master SE of ``addr``.

        ``callback`` receives the *old* value (fetch semantics) when the
        response message reaches the core.
        """
        fn = RMW_OPS.get(op)
        if fn is None:
            raise ValueError(f"unknown rmw op {op!r}; choose from {sorted(RMW_OPS)}")
        master_unit = self.mech.system.addrmap.unit_of(addr)
        now = self.sim.now
        inter = self.mech.interconnect

        # Request: core -> Master SE (local or crossing the link).
        latency = inter.transfer_latency(core.unit_id, master_unit, now, REQUEST_BYTES)
        if core.unit_id == master_unit:
            self.stats.sync_messages_local += 1
        else:
            self.stats.sync_messages_global += 1

        # Atomicity: serialize through the Master SE's service queue.
        se = self.mech.se(master_unit)
        arrival = now + latency
        start = max(arrival, se._last_arrival.get(("rmw", core.core_id), 0) + 1)

        def execute() -> None:
            old = self._values.get(addr, 0)
            self._values[addr] = fn(old, operand)
            self.operations_executed += 1
            done = self.sim.now + se.service_cycles + ALU_CORE_CYCLES
            back = inter.transfer_latency(
                master_unit, core.unit_id, done, RESPONSE_BYTES
            )
            if core.unit_id == master_unit:
                self.stats.sync_messages_local += 1
            else:
                self.stats.sync_messages_global += 1
            self.sim.schedule_at(done + back, callback, old)

        self.sim.schedule_at(start, execute)
