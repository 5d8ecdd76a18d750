"""SynCron: the paper's contribution.

Synchronization Engines (one per NDP unit) with a Synchronization Table,
indexing counters, hierarchical message-passing, and hardware-only overflow
management via in-memory ``syncronVar`` structures — plus the programmer API
of Table 2 and the area/power model of Table 8
(:mod:`repro.core.area`, imported by name: no simulation uses it).
"""

from repro.core import api
from repro.core.engine import SynCronMechanism, SyncEngine
from repro.core.indexing import IndexingCounters
from repro.core.messages import Message, Opcode, REQUEST_BYTES, RESPONSE_BYTES
from repro.core.protocol import ProtocolError
from repro.core.sync_table import STEntry, STFullError, SynchronizationTable
from repro.core.syncronvar import SyncronVar, SyncronVarStore

__all__ = [
    "api",
    "IndexingCounters",
    "Message",
    "Opcode",
    "ProtocolError",
    "REQUEST_BYTES",
    "RESPONSE_BYTES",
    "STEntry",
    "STFullError",
    "SynCronMechanism",
    "SyncEngine",
    "SynchronizationTable",
    "SyncronVar",
    "SyncronVarStore",
]
