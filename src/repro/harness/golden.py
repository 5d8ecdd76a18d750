"""Physics digests: one hash per run that changes only when its physics does.

:func:`physics_digest` is the same function ``e2ebench/worker.py`` checks
against ``e2ebench/digests.json``: the SHA-256 of the canonical JSON of
:meth:`RunMetrics.as_dict <repro.workloads.base.RunMetrics.as_dict>` with
the ``kernel.*`` stats left out, because those count simulation effort,
not simulated physics.  The ``telemetry.*`` prefix matches no key (host
time goes to the telemetry bus, never into ``RunMetrics``); it stays so
this function keeps matching the worker's copy of it.
"""

from __future__ import annotations

import hashlib
import json

from repro.workloads.base import RunMetrics

#: RunMetrics stats prefixes that describe simulation effort or host time.
NON_PHYSICS_PREFIXES = ("kernel.", "telemetry.")


def physics_digest(metrics: RunMetrics) -> str:
    """SHA-256 over ``metrics.as_dict()`` minus kernel/telemetry stats."""
    payload = metrics.as_dict()
    payload["stats"] = {k: v for k, v in payload["stats"].items()
                        if not k.startswith(NON_PHYSICS_PREFIXES)}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
