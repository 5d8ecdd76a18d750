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
lists + primitive payload) is identical to an ST entry's, so we store the
protocol state as a :class:`~repro.core.sync_table.STEntry` inside the
wrapper and let the same protocol handlers operate on both.  What the
wrapper adds is (i) the ``OverflowInfo`` bitmask tracking which SEs have
overflowed for this variable, and (ii) the structure's size in bytes, which
sizes the DRAM traffic the Master SE pays on every overflow access.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.sync_table import STEntry


class SyncronVar:
    """One ``syncronVar`` structure resident in the Master SE's memory."""

    def __init__(self, addr: int, num_ses: int,
                 state: Optional[STEntry] = None, overflow_info: int = 0):
        self.addr = addr
        self.num_ses = num_ses
        self.state = STEntry(addr=addr, var=None) if state is None else state
        #: bitmask of SEs currently overflowed for this variable
        #: (OverflowInfo).
        self.overflow_info = overflow_info

    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """2 bytes per SE waitlist + 8 (VarInfo) + 1 (OverflowInfo)."""
        return 2 * self.num_ses + 8 + 1

    def set_overflowed(self, se_id: int) -> None:
        self.overflow_info |= 1 << se_id

    def clear_overflowed(self, se_id: int) -> None:
        self.overflow_info &= ~(1 << se_id)

    def is_overflowed(self, se_id: int) -> bool:
        return bool(self.overflow_info & (1 << se_id))

    def overflowed_ses(self) -> List[int]:
        return [s for s in range(self.num_ses) if self.overflow_info & (1 << s)]


class SyncronVarStore:
    """The Master-SE-side view of all overflow structures in its memory.

    The driver allocates ``syncronVar`` structures at variable creation
    (Table 2: ``create_syncvar``); we materialize them lazily on first
    overflow, which is equivalent for timing because allocation is not on
    any measured path.
    """

    def __init__(self, num_ses: int):
        self.num_ses = num_ses
        self._vars: Dict[int, SyncronVar] = {}

    def get_or_create(self, addr: int, var=None) -> SyncronVar:
        sv = self._vars.get(addr)
        if sv is None:
            sv = SyncronVar(addr=addr, num_ses=self.num_ses)
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
