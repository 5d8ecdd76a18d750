"""Run telemetry: spans, counters, an event log, and exporters.

Every layer above the simulator (spec execution, sweep runner, result
store, CLI) reports progress and wall-clock cost through one
process-local bus:

- **counters** — monotonically increasing totals (``store.hits``,
  ``sim.runs``, and the float ``sim.wall_seconds``: host seconds the
  event kernel spent draining).
- **spans** — named wall-clock sections with count/total/min/max
  aggregation (``spec.execute``, ``store.publish``); each completion is
  also appended to the JSONL event log.

The bus is **disabled by default**: :func:`get_telemetry` returns a
:class:`NullTelemetry` whose methods are argument-swallowing no-ops, so
instrumented paths pay one attribute load and a cheap call when
telemetry is off and *never* allocate.  Observation is strictly
out-of-band: nothing the bus records feeds back into a result, so
``RunMetrics`` (simulated cycles, energy, traffic and every stats key)
is equal with the bus enabled or disabled, and the content-addressed
store needs no clean-up step.  The simulator (``repro.sim``,
``repro.core``) never imports this module; its own counters (for
example ``SystemStats.reroutes`` on a degraded fabric) are results.

Enable it for a scope with :func:`telemetry_session` (the CLI's
``--telemetry DIR``)::

    with telemetry_session("telemetry-out", worker="w1") as tel:
        ... run sweeps ...
    # telemetry-out/ now holds events-<worker>.jsonl + snapshot-<worker>.json

Exports:

- ``events-<worker>.jsonl`` — append-only event log (one JSON object per
  line: ``{"ts": ..., "event": ..., ...}``); each sweep worker process
  gets a fresh bus writing its own file keyed by pid, so lines are never
  interleaved and no counter is exported twice.
- ``snapshot-<worker>.json`` — aggregate snapshot (counters / spans),
  written on session exit and on demand.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import time
from collections import Counter
from typing import Dict, Iterator, List, Optional

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def _sanitize(name: str) -> str:
    """A worker name as a filename fragment (``[a-zA-Z0-9_]`` only)."""
    return _NAME_RE.sub("_", name)


class _NullSpan:
    """Context manager that measures nothing (the disabled-bus span)."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled bus: every operation is a no-op.

    Kept method-compatible with :class:`Telemetry` so instrumentation
    sites never branch on the enabled state themselves (unless they want
    to skip expensive argument construction, for which :attr:`enabled`
    exists).
    """

    enabled = False
    worker: Optional[str] = None

    def span(self, name: str, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def count(self, name: str, n: float = 1) -> None:
        pass

    def event(self, name: str, **fields) -> None:
        pass

    def snapshot(self) -> Dict:
        return {}

    def export(self) -> Optional[str]:
        return None

    def close(self) -> None:
        pass


class _Span:
    """One live span: records its duration into the bus on exit."""

    __slots__ = ("_bus", "name", "attrs", "_t0")

    def __init__(self, bus: "Telemetry", name: str, attrs: Dict):
        self._bus = bus
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, *exc) -> bool:
        seconds = time.perf_counter() - self._t0
        self._bus._finish_span(self.name, seconds, self.attrs,
                               error=exc_type is not None)
        return False


class Telemetry:
    """The enabled process-local telemetry bus.

    ``directory`` is optional: without one the bus still aggregates (tests,
    in-process inspection) but writes no event log and exports nothing.
    """

    enabled = True

    def __init__(self, directory: Optional[str] = None,
                 worker: Optional[str] = None):
        self.directory = str(directory) if directory else None
        self.worker = worker
        self.started_at = time.time()
        self.counters: Counter = Counter()
        #: span name -> [count, total_s, min_s, max_s, errors]
        self.spans: Dict[str, List[float]] = {}
        self._sink = None
        self._sink_pid: Optional[int] = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attrs) -> _Span:
        """``with tel.span("spec.execute", spec=...):`` — timed section."""
        return _Span(self, name, attrs)

    def _finish_span(self, name: str, seconds: float, attrs: Dict,
                     error: bool = False) -> None:
        cell = self.spans.get(name)
        if cell is None:
            self.spans[name] = [1, seconds, seconds, seconds, int(error)]
        else:
            cell[0] += 1
            cell[1] += seconds
            if seconds < cell[2]:
                cell[2] = seconds
            if seconds > cell[3]:
                cell[3] = seconds
            cell[4] += int(error)
        self.event("span", span=name, secs=round(seconds, 6),
                   **({"error": True} if error else {}), **attrs)

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] += n

    def event(self, name: str, **fields) -> None:
        """Append one record to the JSONL event log (no-op without a dir)."""
        sink = self._ensure_sink()
        if sink is None:
            return
        record = {"ts": round(time.time(), 6), "event": name}
        if self.worker:
            record["worker"] = self.worker
        record.update(fields)
        try:
            sink.write(json.dumps(record, default=str) + "\n")
            sink.flush()
        except (OSError, ValueError):  # closed/full sink never kills a run
            pass

    def _ensure_sink(self):
        """The event-log file handle, reopened per process after a fork."""
        if self.directory is None:
            return None
        pid = os.getpid()
        if self._sink is None or self._sink_pid != pid:
            if self._sink is not None:
                with contextlib.suppress(OSError):
                    self._sink.close()
            os.makedirs(self.directory, exist_ok=True)
            self._sink = open(
                os.path.join(self.directory, f"events-{self._identity()}.jsonl"),
                "a", encoding="utf-8",
            )
            self._sink_pid = pid
        return self._sink

    def _identity(self) -> str:
        base = _sanitize(self.worker) if self.worker else "main"
        return f"{base}-{os.getpid()}"

    # ------------------------------------------------------------------
    # Exporting
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict:
        """Aggregate JSON-dumpable view of everything recorded so far."""
        spans = {
            name: {"count": int(cell[0]), "total_s": cell[1],
                   "min_s": cell[2], "max_s": cell[3], "errors": int(cell[4])}
            for name, cell in sorted(self.spans.items())
        }
        return {
            "worker": self.worker,
            "pid": os.getpid(),
            "started_at": self.started_at,
            "written_at": time.time(),
            "counters": dict(sorted(self.counters.items())),
            "spans": spans,
        }

    def export(self) -> Optional[str]:
        """Write ``snapshot-<worker>.json`` into the directory; its path."""
        if self.directory is None:
            return None
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory,
                            f"snapshot-{self._identity()}.json")
        tmp = f"{path}.tmp{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
        os.replace(tmp, path)
        return path

    def close(self) -> None:
        if self._sink is not None:
            with contextlib.suppress(OSError):
                self._sink.close()
            self._sink = None


# ----------------------------------------------------------------------
# The active bus (process-local)
# ----------------------------------------------------------------------
NULL = NullTelemetry()
_ACTIVE: "NullTelemetry | Telemetry" = NULL


def get_telemetry():
    """The active bus; a no-op :data:`NULL` unless a session configured one."""
    return _ACTIVE


def configure(directory: Optional[str] = None,
              worker: Optional[str] = None) -> Telemetry:
    """Install an enabled bus as the process's active telemetry."""
    global _ACTIVE
    bus = Telemetry(directory, worker=worker)
    _ACTIVE = bus
    return bus


def disable() -> None:
    """Return to the disabled no-op bus (closing the current one)."""
    global _ACTIVE
    if isinstance(_ACTIVE, Telemetry):
        _ACTIVE.close()
    _ACTIVE = NULL


@contextlib.contextmanager
def telemetry_session(directory: Optional[str] = None,
                      worker: Optional[str] = None) -> Iterator[Telemetry]:
    """Enable telemetry for a scope; exports the snapshot on exit."""
    previous = _ACTIVE
    bus = configure(directory, worker=worker)
    try:
        bus.event("session.start")
        yield bus
    finally:
        bus.event("session.end")
        bus.export()
        bus.close()
        globals()["_ACTIVE"] = previous


def merge_snapshots(snapshots: List[Dict]) -> Dict:
    """Fold per-worker snapshot dicts into one aggregate (``repro report``).

    Counters add; span cells merge their count/total/min/max/errors.
    """
    counters: Counter = Counter()
    spans: Dict[str, Dict] = {}
    workers: List[str] = []
    for snap in snapshots:
        worker = snap.get("worker") or f"pid{snap.get('pid', '?')}"
        if worker not in workers:
            workers.append(worker)
        for name, value in snap.get("counters", {}).items():
            counters[name] += value
        for name, cell in snap.get("spans", {}).items():
            merged = spans.get(name)
            if merged is None:
                spans[name] = dict(cell)
            else:
                merged["count"] += cell["count"]
                merged["total_s"] += cell["total_s"]
                merged["min_s"] = min(merged["min_s"], cell["min_s"])
                merged["max_s"] = max(merged["max_s"], cell["max_s"])
                merged["errors"] += cell["errors"]
    return {
        "workers": workers,
        "counters": dict(sorted(counters.items())),
        "spans": dict(sorted(spans.items())),
    }
