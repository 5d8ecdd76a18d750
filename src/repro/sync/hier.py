"""Hier baseline (Sec. 5): one server core per NDP unit.

A hierarchical message-passing scheme in the spirit of the tree barrier of
Gao et al. [PACT'15] and the hierarchical lock of pLock [ASPLOS'19]: one NDP
core per unit acts as a local server, aggregating its unit's requests and
coordinating with the variable's home-unit server, exactly like SynCron's
SEs — but each server is *software on a core*: per-message handler
instructions plus loads/stores to waiting lists and synchronization
variables through its L1 and memory, instead of SynCron's dedicated SPU and
1-cycle ST.
"""

from __future__ import annotations

from repro.core.engine import SynCronMechanism
from repro.sync.server import ServerEngine


class HierMechanism(SynCronMechanism):
    name = "hier"

    def _make_engines(self):
        return [
            ServerEngine(self, se_id=u, unit=u)
            for u in range(self.config.num_units)
        ]
