"""SynCron's flat variant (Sec. 6.7.1 ablation).

Identical hardware to SynCron (SEs with STs and overflow management), but no
hierarchy: every core sends each request *directly* to the Master SE of the
variable, crossing the inter-unit link whenever the variable lives in
another unit.  Grants travel back the same way.  The paper uses this
variant to show that only a hierarchical design performs well under high
contention in non-uniform NDP systems.
"""

from __future__ import annotations

from repro.core.engine import SynCronMechanism


class FlatSynCronMechanism(SynCronMechanism):
    name = "syncron_flat"

    def entry_unit(self, core, msg) -> int:
        return msg.var.unit

    def inject_internal(self, se, msg) -> None:
        """Flat routing: the lock's Master SE owns the state, so condvar
        lock release / re-acquire must run there."""
        target = self.ses[msg.var.unit]
        depart = self.sim.now + se._extra
        if target is se:
            se.sim.schedule_at(depart, se._enqueue, msg)
            return
        target.receive(msg, self.send(se.unit, target.unit, depart, msg.bytes),
                       sender=se.sender_token)
