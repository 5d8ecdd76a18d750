"""The in-memory ``syncronVar`` structure (paper Sec. 4.3.1 / Fig. 9).

When STs overflow, the Master SE coordinates a variable through a generic
structure allocated in its local main memory::

    struct syncronVar_t {
        uint16_t Waitlist[NUM_SES];   // one bit per core of each unit
        uint64_t VarInfo;             // primitive-specific payload
        uint8_t  OverflowInfo;        // which SEs have overflowed (bitmask)
    }

Only the Master SE reads or writes the structure (the correctness rule of
Sec. 4.3.2); overflowed local SEs reach it only through overflow messages.

Implementation note: the *logical* content of a ``syncronVar`` (waiting
lists + primitive payload) is identical to an ST entry's, so the wrapper
holds the protocol state as a :class:`~repro.core.sync_table.STEntry` and
the same protocol handlers operate on both.  The ``OverflowInfo`` bitmask
is the entry's ``overflow_ses`` set.  The structure's size is not
modelled: every overflow access costs the Master SE one device read plus
one write at the variable's address
(``SyncEngine._charge_syncronvar_access``).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.sync_table import STEntry


class SyncronVar:
    """One ``syncronVar`` structure resident in the Master SE's memory."""

    def __init__(self, addr: int):
        self.addr = addr
        self.state = STEntry(addr=addr, var=None)


class SyncronVarStore:
    """The Master-SE-side view of all overflow structures in its memory.

    The driver allocates ``syncronVar`` structures at variable creation
    (Table 2: ``create_syncvar``); we materialize them lazily on first
    overflow, which is equivalent for timing because allocation is not on
    any measured path.
    """

    def __init__(self):
        self._vars: Dict[int, SyncronVar] = {}

    def get_or_create(self, addr: int, var=None) -> SyncronVar:
        sv = self._vars.get(addr)
        if sv is None:
            sv = SyncronVar(addr)
            sv.state.var = var
            self._vars[addr] = sv
        elif var is not None and sv.state.var is None:
            sv.state.var = var
        return sv

    def lookup(self, addr: int) -> Optional[SyncronVar]:
        return self._vars.get(addr)

    def drop(self, addr: int) -> None:
        self._vars.pop(addr, None)

    def __len__(self) -> int:
        return len(self._vars)

    def __contains__(self, addr: int) -> bool:
        return addr in self._vars
