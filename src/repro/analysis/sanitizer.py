"""Runtime determinism sanitizer: a race detector for the event kernel.

The static rule RP002 catches *unordered iteration*; this module catches
the dynamic twin — two events at the **same simulated cycle** touching the
same state such that the outcome depends on queue-insertion order.  The
kernel guarantees insertion-order execution within a timestamp, so such
runs are reproducible — but the *program* is still order-fragile: any
refactor that changes which component schedules first silently changes
physics.  That is exactly the bug class the bit-identity diffs catch
post-hoc; the sanitizer points at the offending (object, attribute) pair
while the run happens.

How accesses are observed
-------------------------

- **Writes, automatically**: when a :class:`Simulator` runs with the
  sanitizer enabled, every event callback's owner (``callback.__self__``)
  has its primitive attributes snapshotted before and after the callback;
  differences are recorded as writes.  This covers the overwhelmingly
  common self-mutating bound-method events without instrumenting any
  component code.
- **Reads and cross-object writes, explicitly**: code under test (or a
  synthetic workload) can call :func:`note_read` / :func:`note_write` to
  declare accesses the snapshotter cannot see.  The calls are no-ops when
  no sanitizer session is active.

What is a hazard
----------------

Within one simulated cycle, for one (object, attribute) key:

- **write-write**: two *different* events wrote it, and at least one write
  was not a numeric-to-numeric change.  Numeric deltas are treated as
  commutative accumulation (counters are bumped by many same-cycle events
  by design); replacing a reference or a string is last-writer-wins and
  therefore insertion-order-dependent.
- **read-write**: one event read it (via :func:`note_read`) while a
  *different* event wrote it — the reader sees pre- or post-write state
  depending on queue order.

Causally-ordered events are exempt: when event *A* (or code it calls)
schedules event *B* into the *same* cycle, the kernel appends *B* behind
*A* and their relative order is forced by the causal chain — a
request-issue event conflicting with its own zero-latency grant is
synchronization, not a race.  The kernel's observed drain reports each
event's same-cycle parent (the event that inserted it) and the hazard
reduction skips ancestor-descendant pairs.

The sanitizer is observational: enabling it never changes simulated
results, only wall-clock cost.  It is a debug mode — expect a few times
slowdown — hence opt-in via ``repro run ... --sanitize``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

#: (type name, attribute) pairs whose same-cycle write pairs are benign
#: *by design*.  Type names match against the owner's whole MRO, so one
#: base-class entry covers subclasses.  Every entry needs a justification:
DEFAULT_ALLOWLIST: Set[Tuple[str, str]] = {
    # Request/grant rendezvous: a core's issue event writes the timestamp,
    # its grant event clears it.  The grant is causally after the request
    # through the mechanism's waitlist (a grant for this core cannot exist
    # before its request is enqueued) — a cross-object data dependency the
    # same-cycle parent chain cannot see.
    ("NDPCore", "_waiting_since"),
    # SE service-loop handshake: ``_finish``/``_start_next`` (previous
    # message completes) and ``_enqueue`` (new message arrives) may share a
    # cycle in either order.  Both orders service the new message starting
    # the same cycle — the queue, not bucket order, serializes work — so
    # the toggle converges.  Covers every SyncEngine subclass via the MRO.
    ("SyncEngine", "_busy"),
}

_NUMERIC = (int, float)
_PRIMITIVE = (int, float, bool, str, bytes, tuple, frozenset, type(None))


def _qualname(callback: Any) -> str:
    name = getattr(callback, "__qualname__", None)
    if name is None:
        name = getattr(type(callback), "__qualname__", "?")
    return name


def _observable(obj: Any) -> Iterator[Tuple[str, Any]]:
    """(attr, value) pairs of primitive-valued attributes of ``obj``.

    Handles both dict-backed and slotted objects (every hot simulator
    class uses ``__slots__``).  Non-primitive values (lists, dicts, other
    components) are skipped: diffing them per event would be quadratic,
    and mutations inside them are declared via :func:`note_write` instead.
    """
    d = getattr(obj, "__dict__", None)
    if d is not None:
        for attr, value in d.items():
            if isinstance(value, _PRIMITIVE):
                yield attr, value
        return
    for cls in type(obj).__mro__:
        for attr in getattr(cls, "__slots__", ()):
            try:
                value = getattr(obj, attr)
            except AttributeError:
                continue
            if isinstance(value, _PRIMITIVE):
                yield attr, value


@dataclass(frozen=True)
class Hazard:
    """One same-cycle ordering hazard."""

    cycle: int
    kind: str          # "write-write" | "read-write"
    obj: str           # "TypeName#index"
    attr: str
    events: Tuple[str, ...]   # qualnames of the involved callbacks
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "cycle": self.cycle,
            "kind": self.kind,
            "obj": self.obj,
            "attr": self.attr,
            "events": list(self.events),
            "detail": self.detail,
        }

    def describe(self) -> str:
        who = " vs ".join(self.events)
        return (f"cycle {self.cycle}: {self.kind} on {self.obj}.{self.attr} "
                f"({who}){': ' + self.detail if self.detail else ''}")


class AccessRecorder:
    """Per-:class:`Simulator` access tracker: a kernel drain observer.

    The kernel calls :meth:`before_event` / :meth:`after_event` around
    every callback and :meth:`end_cycle` once per drained timestamp; the
    recorder diffs owner snapshots into write sets and reduces each
    cycle's access map to hazards.
    """

    __slots__ = ("hazards", "allowlist", "events_observed",
                 "cycles_observed", "_writes", "_reads", "_names",
                 "_event_seq", "_event_name", "_owner", "_snapshot",
                 "_obj_index", "_parents", "_mros")

    def __init__(self, allowlist: Optional[Set[Tuple[str, str]]] = None):
        self.hazards: List[Hazard] = []
        self.allowlist = (DEFAULT_ALLOWLIST if allowlist is None
                          else allowlist)
        self.events_observed = 0
        self.cycles_observed = 0
        #: (obj_key, attr) -> list of (event_idx, event_name, old, new);
        #: event_idx is the event's position within the current cycle.
        self._writes: Dict[Tuple[int, str], List[Tuple[int, str, Any, Any]]] = {}
        #: (obj_key, attr) -> list of (event_idx, event_name)
        self._reads: Dict[Tuple[int, str], List[Tuple[int, str]]] = {}
        #: obj id -> display name "TypeName#index"
        self._names: Dict[int, str] = {}
        #: obj id -> every class name in the object's MRO (allowlisting a
        #: base class covers its subclasses).
        self._mros: Dict[int, Tuple[str, ...]] = {}
        self._obj_index = 0
        self._event_seq = -1
        self._event_name = ""
        self._owner: Any = None
        self._snapshot: Dict[str, Any] = {}
        #: within-cycle causality: index -> the event that scheduled it
        #: into this same cycle (None = carried in from an earlier cycle).
        self._parents: List[Optional[int]] = []

    # -- naming ---------------------------------------------------------
    def _name_of(self, obj: Any) -> str:
        key = id(obj)
        name = self._names.get(key)
        if name is None:
            name = f"{type(obj).__name__}#{self._obj_index}"
            self._obj_index += 1
            self._names[key] = name
            self._mros[key] = tuple(
                cls.__name__ for cls in type(obj).__mro__)
        return name

    # -- kernel-facing hooks -------------------------------------------
    def before_event(self, callback: Any,
                     parent: Optional[int] = None) -> None:
        self._event_seq += 1
        self._parents.append(parent)
        self._event_name = _qualname(callback)
        owner = getattr(callback, "__self__", None)
        self._owner = owner
        self._snapshot = dict(_observable(owner)) if owner is not None else {}

    def after_event(self, callback: Any) -> None:
        self.events_observed += 1
        owner = self._owner
        if owner is None:
            return
        before = self._snapshot
        missing = object()
        for attr, value in _observable(owner):
            old = before.get(attr, missing)
            if old is missing or old != value:
                self._record_write(owner, attr,
                                   None if old is missing else old, value)
        self._owner = None
        self._snapshot = {}

    def _ordered(self, a: int, b: int) -> bool:
        """True when one event is a same-cycle causal ancestor of the other.

        Parents always precede children within a cycle (the kernel appends
        descendants behind the running event), so only the later event's
        ancestor chain needs walking.
        """
        lo, hi = (a, b) if a < b else (b, a)
        parents = self._parents
        cur: Optional[int] = hi
        while cur is not None and cur >= lo:
            if cur == lo:
                return True
            cur = parents[cur]
        return False

    def _any_unordered(self, indexes: List[int]) -> bool:
        for i, a in enumerate(indexes):
            for b in indexes[i + 1:]:
                if a != b and not self._ordered(a, b):
                    return True
        return False

    def end_cycle(self, cycle: int) -> None:
        self.cycles_observed += 1
        self._event_seq = -1
        writes, reads = self._writes, self._reads
        parents, self._parents = self._parents, []
        if not writes and not reads:
            return
        self._parents = parents  # _ordered needs them during the reduction
        for (obj_id, attr), entries in writes.items():
            obj_name = self._names[obj_id]
            if any((cls, attr) in self.allowlist
                   for cls in self._mros.get(obj_id, ())):
                continue
            writer_idxs = sorted({idx for idx, _n, _o, _v in entries})
            non_numeric = not all(
                isinstance(old, _NUMERIC) and isinstance(new, _NUMERIC)
                and not isinstance(old, bool) and not isinstance(new, bool)
                for _i, _n, old, new in entries)
            if (len(writer_idxs) > 1 and non_numeric
                    and self._any_unordered(writer_idxs)):
                self.hazards.append(Hazard(
                    cycle=cycle, kind="write-write", obj=obj_name, attr=attr,
                    events=tuple(dict.fromkeys(
                        n for _i, n, _o, _v in entries)),
                    detail="non-commutative same-cycle writes from "
                           f"{len(writer_idxs)} causally-unordered events: "
                           "final value is queue-insertion-order-dependent",
                ))
            readers = reads.get((obj_id, attr))
            if readers:
                racing = [
                    (ridx, rname) for ridx, rname in readers
                    if ridx not in writer_idxs
                    and any(not self._ordered(ridx, w) for w in writer_idxs)
                ]
                if racing:
                    self.hazards.append(Hazard(
                        cycle=cycle, kind="read-write", obj=obj_name,
                        attr=attr,
                        events=tuple(dict.fromkeys(
                            [n for _i, n in racing]
                            + [n for _i, n, _o, _v in entries])),
                        detail="a reader and a writer share the cycle with "
                               "no causal order: the read observes pre- or "
                               "post-write state depending on queue order",
                    ))
        self._parents = []
        writes.clear()
        reads.clear()

    # -- explicit declarations -----------------------------------------
    def _record_write(self, obj: Any, attr: str, old: Any, new: Any) -> None:
        self._name_of(obj)
        key = (id(obj), attr)
        self._writes.setdefault(key, []).append(
            (self._event_seq, self._event_name, old, new))

    def note_write(self, obj: Any, attr: str,
                   old: Any = None, new: Any = None) -> None:
        self._record_write(obj, attr, old, new)

    def note_read(self, obj: Any, attr: str) -> None:
        self._name_of(obj)
        key = (id(obj), attr)
        self._reads.setdefault(key, []).append(
            (self._event_seq, self._event_name))


class SanitizerSession:
    """Aggregates recorders (one per Simulator) for one sanitized run."""

    def __init__(self, allowlist: Optional[Set[Tuple[str, str]]] = None):
        self.allowlist = allowlist
        self.recorders: List[AccessRecorder] = []

    def recorder(self) -> AccessRecorder:
        rec = AccessRecorder(self.allowlist)
        self.recorders.append(rec)
        return rec

    @property
    def hazards(self) -> List[Hazard]:
        return [h for rec in self.recorders for h in rec.hazards]

    @property
    def events_observed(self) -> int:
        return sum(rec.events_observed for rec in self.recorders)

    @property
    def cycles_observed(self) -> int:
        return sum(rec.cycles_observed for rec in self.recorders)

    def report(self) -> str:
        lines = [
            f"sanitizer: {self.events_observed} events across "
            f"{self.cycles_observed} populated cycles in "
            f"{len(self.recorders)} simulator(s); "
            f"{len(self.hazards)} hazard(s)"
        ]
        lines.extend("  " + h.describe() for h in self.hazards)
        return "\n".join(lines)


#: the process-local active session (None = sanitizer off).
_SESSION: Optional[SanitizerSession] = None


def sanitizer_active() -> bool:
    return _SESSION is not None


def current_session() -> Optional[SanitizerSession]:
    return _SESSION


@contextmanager
def sanitize_session(allowlist: Optional[Set[Tuple[str, str]]] = None):
    """Activate the sanitizer for the dynamic extent of a run.

    Simulators constructed inside the scope (``NDPSystem`` checks
    :func:`sanitizer_active`) record accesses into the yielded session.
    """
    global _SESSION
    if _SESSION is not None:
        raise RuntimeError("sanitizer session already active")
    session = SanitizerSession(allowlist)
    _SESSION = session
    try:
        yield session
    finally:
        _SESSION = None


def note_read(obj: Any, attr: str) -> None:
    """Declare a read the snapshotter cannot see (no-op when inactive)."""
    if _SESSION is not None and _SESSION.recorders:
        _SESSION.recorders[-1].note_read(obj, attr)


def note_write(obj: Any, attr: str) -> None:
    """Declare a write the snapshotter cannot see (no-op when inactive)."""
    if _SESSION is not None and _SESSION.recorders:
        _SESSION.recorders[-1].note_write(obj, attr)
