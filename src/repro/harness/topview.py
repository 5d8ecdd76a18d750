"""Live view of an in-flight cooperative sweep (the ``repro top`` backend).

Workers draining a shared store publish heartbeat files next to the
LeaseBoard (:class:`repro.harness.store.Heartbeat`); this module reads
them plus the lease directory and turns them into one snapshot dict —
per-worker progress, aggregate throughput, and an ETA — that the CLI
renders either once (non-TTY / ``--once``) or in a refresh loop.

Everything here is read-only and best-effort: a torn heartbeat or a
vanishing lease file degrades the view, never the sweep.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.harness.reporting import format_table
from repro.harness.store import LeaseBoard, read_heartbeats

#: a worker whose heartbeat is older than this (and not done) is flagged.
STALE_AFTER_SECONDS = 15.0


def gather(root: Union[str, Path],
           now: Optional[float] = None) -> Dict:
    """Snapshot the sweep state under a store root.

    Returns ``{"workers": [...], "totals": {...}, "found": bool}``;
    ``found`` is False when no worker ever heartbeated there (wrong path,
    or the sweep ran without a rooted store).
    """
    now = time.time() if now is None else now
    workers: List[Dict] = []
    for hb in read_heartbeats(root):
        age = max(0.0, now - float(hb.get("time", now)))
        elapsed = max(1e-9, float(hb.get("time", now))
                      - float(hb.get("started_at", now)))
        done = bool(hb.get("done"))
        state = str(hb.get("phase", "?"))
        if done:
            state = "done"
        elif age > STALE_AFTER_SECONDS:
            state = "stale"
        executed = int(hb.get("executed", 0))
        events = int(hb.get("kernel_events", 0))
        workers.append({
            "worker": str(hb.get("worker", "?")),
            "state": state,
            "age_s": age,
            "executed": executed,
            "reclaimed": int(hb.get("reclaimed", 0)),
            "elsewhere": int(hb.get("completed_elsewhere", 0)),
            "remaining": int(hb.get("remaining", 0)),
            "total": int(hb.get("total", 0)),
            "events_per_s": events / elapsed,
            "current": _shorten(hb.get("current")),
            "_elapsed": elapsed,
            "_events": events,
        })
    totals = _totals(workers)
    try:
        totals["leases_active"] = LeaseBoard(root).active()
    except OSError:
        totals["leases_active"] = 0
    return {"root": str(root), "time": now,
            "workers": workers, "totals": totals,
            "found": bool(workers)}


def _shorten(text, limit: int = 48) -> str:
    if not text:
        return ""
    text = str(text)
    return text if len(text) <= limit else text[: limit - 1] + "…"


def _totals(workers: List[Dict]) -> Dict:
    completed = sum(w["executed"] + w["elsewhere"] for w in workers)
    executed = sum(w["executed"] for w in workers)
    # Each worker reports its own remaining view; the *minimum* is the
    # tightest global bound (a worker that saw a key finish elsewhere has
    # already dropped it from its count).
    remaining = min((w["remaining"] for w in workers), default=0)
    elapsed = max((w["_elapsed"] for w in workers), default=0.0)
    events_per_s = sum(w["_events"] for w in workers) / elapsed \
        if elapsed > 0 else 0.0
    rate = executed / elapsed if elapsed > 0 else 0.0
    eta = remaining / rate if rate > 0 and remaining else 0.0
    return {
        "workers": len(workers),
        "live": sum(1 for w in workers
                    if w["state"] not in ("done", "stale")),
        "done": sum(1 for w in workers if w["state"] == "done"),
        "executed": executed,
        "reclaimed": sum(w["reclaimed"] for w in workers),
        "completed": completed,
        "remaining": remaining,
        "events_per_s": events_per_s,
        "eta_s": eta,
    }


def render(snapshot: Dict) -> str:
    """The snapshot as operator-readable text (via ``format_table``)."""
    if not snapshot["found"]:
        return (f"no worker heartbeats under {snapshot['root']}/heartbeats\n"
                "(is this the sweep's --store root?)")
    totals = snapshot["totals"]
    rows = [
        {k: v for k, v in w.items() if not k.startswith("_")}
        for w in snapshot["workers"]
    ]
    for row in rows:
        row["age_s"] = f"{row['age_s']:.1f}"
        row["events_per_s"] = f"{row['events_per_s']:,.0f}"
    table = format_table(rows, title=f"workers @ {snapshot['root']}")
    eta = totals["eta_s"]
    eta_text = f"{eta:.0f}s" if eta else "-"
    summary = (
        f"{totals['live']} live / {totals['done']} done of "
        f"{totals['workers']} workers | executed {totals['executed']} "
        f"(+{totals['reclaimed']} reclaimed), remaining "
        f"{totals['remaining']}, leases {totals['leases_active']} | "
        f"{totals['events_per_s']:,.0f} events/s | ETA {eta_text}"
    )
    return f"{table}\n{summary}"


def finished(snapshot: Dict) -> bool:
    """True once every observed worker reported done (or went stale)."""
    workers = snapshot["workers"]
    return bool(workers) and all(
        w["state"] in ("done", "stale") for w in workers
    )
