"""SynCron message opcodes and encoding (paper Fig. 5 and Table 3).

Messages carry: a 64-bit synchronization-variable address, a 6-bit opcode,
a 6-bit core id, and a 64-bit ``MessageInfo`` field — 140 bits per request.
Responses add the grant payload (149 bits with flow-control bits in our
model).  The byte sizes below are what the network models charge.

Opcodes come in three families, exactly as in Table 3:

- ``*_local``    — NDP core <-> its local SE,
- ``*_global``   — local SE <-> Master SE,
- ``*_overflow`` — overflowed local SE <-> Master SE (Sec. 4.3.2),

plus ``decrease_indexing_counter`` (Master SE -> overflowed SE).
"""

from __future__ import annotations

import enum
import math
from typing import Dict, Optional

#: Fig. 5: 64 + 6 + 6 + 64 bits.
REQUEST_BITS = 140
#: grant/response message (request + 9 status/flow-control bits in Fig. 6).
RESPONSE_BITS = 149

REQUEST_BYTES = math.ceil(REQUEST_BITS / 8)
RESPONSE_BYTES = math.ceil(RESPONSE_BITS / 8)


class Opcode(enum.Enum):
    # --- locks --------------------------------------------------------
    LOCK_ACQUIRE_LOCAL = enum.auto()
    LOCK_ACQUIRE_GLOBAL = enum.auto()
    LOCK_RELEASE_LOCAL = enum.auto()
    LOCK_RELEASE_GLOBAL = enum.auto()
    LOCK_GRANT_LOCAL = enum.auto()
    LOCK_GRANT_GLOBAL = enum.auto()
    LOCK_ACQUIRE_OVERFLOW = enum.auto()
    LOCK_RELEASE_OVERFLOW = enum.auto()
    LOCK_GRANT_OVERFLOW = enum.auto()
    # --- barriers -----------------------------------------------------
    BARRIER_WAIT_LOCAL_WITHIN_UNIT = enum.auto()
    BARRIER_WAIT_LOCAL_ACROSS_UNITS = enum.auto()
    BARRIER_WAIT_GLOBAL = enum.auto()
    BARRIER_DEPART_LOCAL = enum.auto()
    BARRIER_DEPART_GLOBAL = enum.auto()
    BARRIER_WAIT_OVERFLOW = enum.auto()
    BARRIER_DEPARTURE_OVERFLOW = enum.auto()
    # --- semaphores ---------------------------------------------------
    SEM_WAIT_LOCAL = enum.auto()
    SEM_WAIT_GLOBAL = enum.auto()
    SEM_GRANT_LOCAL = enum.auto()
    SEM_GRANT_GLOBAL = enum.auto()
    SEM_POST_LOCAL = enum.auto()
    SEM_POST_GLOBAL = enum.auto()
    SEM_WAIT_OVERFLOW = enum.auto()
    SEM_GRANT_OVERFLOW = enum.auto()
    #: Table 3 names it, but posts reach the Master SE as SEM_POST_GLOBAL
    #: and are never redirected: nothing sends it (no handler).
    SEM_POST_OVERFLOW = enum.auto()
    # --- condition variables -------------------------------------------
    COND_WAIT_LOCAL = enum.auto()
    COND_WAIT_GLOBAL = enum.auto()
    COND_SIGNAL_LOCAL = enum.auto()
    COND_SIGNAL_GLOBAL = enum.auto()
    COND_BROAD_LOCAL = enum.auto()
    COND_BROAD_GLOBAL = enum.auto()
    COND_GRANT_LOCAL = enum.auto()
    COND_GRANT_GLOBAL = enum.auto()
    COND_WAIT_OVERFLOW = enum.auto()
    #: Table 3 names these two, but signals and broadcasts reach the Master
    #: SE as *_GLOBAL and are never redirected: nothing sends them.
    COND_SIGNAL_OVERFLOW = enum.auto()
    COND_BROAD_OVERFLOW = enum.auto()
    COND_GRANT_OVERFLOW = enum.auto()
    # --- reader-writer locks (generality extension; cf. LCU, Sec. 4.5) ---
    RW_READ_ACQUIRE_LOCAL = enum.auto()
    RW_READ_ACQUIRE_GLOBAL = enum.auto()
    RW_READ_RELEASE_LOCAL = enum.auto()
    RW_READ_RELEASE_GLOBAL = enum.auto()
    RW_WRITE_ACQUIRE_LOCAL = enum.auto()
    RW_WRITE_ACQUIRE_GLOBAL = enum.auto()
    RW_WRITE_RELEASE_LOCAL = enum.auto()
    RW_WRITE_RELEASE_GLOBAL = enum.auto()
    # --- other ----------------------------------------------------------
    DECREASE_INDEXING_COUNTER = enum.auto()

    # Members are singletons compared by identity, so the identity hash is
    # consistent with equality.  Enum's own ``__hash__`` is a Python-level
    # ``hash(self._name_)``, paid on every handler and wire-size lookup.
    __hash__ = object.__hash__


LOCAL_OPCODES = frozenset(op for op in Opcode if op.name.endswith("_LOCAL")) | {
    Opcode.BARRIER_WAIT_LOCAL_WITHIN_UNIT,
    Opcode.BARRIER_WAIT_LOCAL_ACROSS_UNITS,
}
GLOBAL_OPCODES = frozenset(op for op in Opcode if op.name.endswith("_GLOBAL"))
OVERFLOW_OPCODES = frozenset(op for op in Opcode if op.name.endswith("_OVERFLOW")) | {
    Opcode.DECREASE_INDEXING_COUNTER,
}

#: Opcode -> wire size in bytes, precomputed once so the per-message ``bytes``
#: lookup on the network hot path never scans opcode names.
OPCODE_BYTES: Dict[Opcode, int] = {
    op: (RESPONSE_BYTES if ("GRANT" in op.name or "DEPART" in op.name)
         else REQUEST_BYTES)
    for op in Opcode
}


class Message:
    """One message on the SE fabric.

    ``core`` is the requesting core's id for core<->SE messages (the CoreID
    field of Fig. 5); for overflow messages it packs the local core id and
    the overflowed SE's global id, which we keep as separate fields for
    clarity (the hardware packs both into CoreID, Sec. 4.3.2).

    Slotted: millions of Message objects are allocated per run; a slotted
    instance skips the per-message ``__dict__``.
    """

    __slots__ = ("opcode", "var", "core", "src_se", "info")

    def __init__(self, opcode: Opcode, var: object,
                 core: Optional[int] = None, src_se: Optional[int] = None,
                 info: int = 0):
        self.opcode = opcode
        self.var = var        # repro.sim.syncif.SyncVar
        self.core = core      # requesting core (global id)
        self.src_se = src_se  # sending SE (global id), for SE<->SE
        self.info = info      # MessageInfo (Fig. 5)

    @property
    def bytes(self) -> int:
        return OPCODE_BYTES[self.opcode]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        who = f"core={self.core}" if self.core is not None else f"se={self.src_se}"
        return f"Message({self.opcode.name}, {self.var.name}, {who}, info={self.info})"
