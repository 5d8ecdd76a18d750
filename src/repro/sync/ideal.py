"""The Ideal baseline: zero-overhead synchronization (Sec. 5).

Synchronization operations cost no messages, no service time and no energy;
mutual exclusion, barrier and semaphore semantics are still enforced (via
:class:`~repro.sync.logic.SyncLogic`), so Ideal reflects exactly the main
kernel's own computation and memory behaviour.  The paper uses it as the
upper bound all mechanisms are measured against.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.sim.syncif import MechanismBase
from repro.sync.logic import SyncLogic


class IdealMechanism(MechanismBase):
    name = "ideal"

    def __init__(self, system):
        super().__init__(system)
        self.logic = SyncLogic()
        self._pending: Dict[int, Callable[[], None]] = {}

    # ------------------------------------------------------------------
    def request(self, core, op, var, info, callback) -> None:
        self._admit(op, var)
        self._pending[core.core_id] = callback
        self._wake_all(self.logic.apply(core.core_id, op, var, info))

    def request_async(self, core, op, var, info) -> int:
        self._admit(op, var)
        self._wake_all(self.logic.apply(core.core_id, op, var, info))
        return self.config.async_issue_cycles

    def _wake_all(self, core_ids) -> None:
        for core_id in core_ids:
            callback = self._pending.pop(core_id, None)
            if callback is not None:
                # Zero-latency grant; schedule(0) keeps event ordering sane.
                self.sim.schedule(0, callback)
