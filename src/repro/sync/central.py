"""Central baseline (Sec. 5): one server core for the whole system.

Extends the message-passing barrier of Tesseract [Ahn et al., ISCA'15] to
all four primitives: a single dedicated NDP core acts as server and
coordinates synchronization among all NDP cores, issuing memory requests to
synchronization variables through its own memory hierarchy.  Every client —
including clients in other NDP units — messages it directly, so under
contention all traffic funnels over the narrow inter-unit links to one spot.
"""

from __future__ import annotations

from repro.core.engine import SynCronMechanism
from repro.sync.server import ServerEngine


class _CentralServer(ServerEngine):
    """The single server core coordinates every variable."""

    def is_master(self, var) -> bool:
        return True

    def master_of(self, var) -> int:
        return self.se_id


class CentralMechanism(SynCronMechanism):
    name = "central"

    #: the server core lives in unit 0 (any fixed unit is equivalent).
    SERVER_UNIT = 0

    def _make_engines(self):
        server = _CentralServer(self, se_id=self.SERVER_UNIT, unit=self.SERVER_UNIT)
        # every "SE slot" routes to the one server.
        return [server] * self.config.num_units

    def entry_unit(self, core, msg) -> int:
        return self.SERVER_UNIT
