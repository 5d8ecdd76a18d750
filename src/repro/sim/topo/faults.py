"""Deterministic link fault plans for the inter-unit fabric.

A :class:`FaultPlan` is the full failure schedule of one run, fixed before
the first simulated cycle: explicit link faults listed in the config
(``fault_links``) plus rate-derived faults drawn from a seeded RNG over the
fabric's channel set.  :meth:`FaultPlan.arm` turns the schedule into
:class:`~repro.sim.engine.Simulator` timers that call
:meth:`Interconnect.fail_link <repro.sim.network.Interconnect.fail_link>`
mid-run; the interconnect invalidates its memoized routes and reroutes
around the dead channels.

A fault kills one directed physical channel for the rest of the run.

Determinism and partitions:

- The rate-derived schedule depends only on ``fault_seed`` + the fabric, so
  the same config always produces the same plan (cache keys stay sound).
- Rate-derived faults are *connectivity-guarded*: any drawn fault that
  would disconnect a unit pair at its scheduled time is dropped (kept in
  :attr:`FaultPlan.skipped` for reporting), so a severity sweep degrades
  the fabric without ever cutting it apart.
- *Explicit* faults are obeyed verbatim; if they partition the fabric the
  run fails loudly with :class:`FabricPartitionedError` at injection time —
  it never hangs.
"""

from __future__ import annotations

import random
import re
from typing import AbstractSet, Dict, List, Optional, Set, Tuple, TYPE_CHECKING

from repro.sim.frozen import Frozen
from repro.sim.topo.base import Channel, Topology

if TYPE_CHECKING:  # the interconnect imports this module, not vice versa
    from repro.sim.config import SystemConfig


class FabricPartitionedError(RuntimeError):
    """A fault disconnected live units; the run fails instead of hanging."""


class FaultEvent(Frozen):
    """One scheduled permanent link failure."""

    def __init__(self, channel: Channel, at: int, source: str = "explicit"):
        # source: "explicit" | "random"
        self.__dict__.update(channel=channel, at=at, source=source)


def unreachable_pairs(
    topology: Topology,
    dead_channels: AbstractSet[Channel],
) -> List[Tuple[int, int]]:
    """Ordered unit pairs with no surviving route (empty = connected)."""
    adjacency = topology.adjacency()
    n = topology.num_nodes
    gaps: List[Tuple[int, int]] = []
    for src in range(n):
        reached = {src}
        frontier = [src]
        while frontier:
            next_frontier = []
            for node in frontier:
                for nbr in adjacency[node]:
                    if nbr in reached or (node, nbr) in dead_channels:
                        continue
                    reached.add(nbr)
                    next_frontier.append(nbr)
            frontier = next_frontier
        gaps.extend((src, dst) for dst in range(n) if dst not in reached)
    return gaps


class FaultPlan(Frozen):
    """The complete, ordered failure schedule of one run."""

    def __init__(self, events: Tuple[FaultEvent, ...] = (),
                 skipped: Tuple[FaultEvent, ...] = ()):
        # skipped: rate-derived events dropped by the connectivity guard.
        self.__dict__.update(events=events, skipped=skipped)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------
    @classmethod
    def from_config(cls, config: "SystemConfig", topology: Topology) -> "FaultPlan":
        """Build the plan a config describes (deterministic).

        Cheap by construction for the default config: when no fault field
        is set this returns the empty plan without forcing the topology's
        full routing table.  :meth:`SystemConfig.validate
        <repro.sim.config.SystemConfig.validate>` has already checked that
        every explicit channel exists.
        """
        if not (config.fault_links or config.fault_link_rate):
            return cls()

        explicit = [FaultEvent((src, dst), at)
                    for src, dst, at in config.fault_links]
        randoms: List[FaultEvent] = []
        if config.fault_link_rate:
            channels = topology.channels()
            rng = random.Random(f"faultplan:{config.fault_seed}")
            count = int(round(config.fault_link_rate * len(channels)))
            window = config.fault_window_cycles
            for channel in rng.sample(channels, min(count, len(channels))):
                randoms.append(FaultEvent(
                    channel, rng.randrange(window), "random"))

        kept, skipped = _guard_connectivity(topology, explicit, randoms)
        return cls(events=tuple(kept), skipped=tuple(skipped))

    # ------------------------------------------------------------------
    def arm(self, sim, interconnect) -> None:
        """Schedule every failure as a simulator timer, in plan order.

        The callbacks receive the event's own timestamp, so the
        interconnect's downtime accounting never reads the clock.  The plan
        is in the order the connectivity guard replayed, so a guarded plan
        can never trip the interconnect's runtime partition check.
        """
        for event in self.events:
            sim.schedule_at(event.at, interconnect.fail_link, event.channel,
                            event.at)


def _guard_connectivity(
    topology: Topology,
    explicit: List[FaultEvent],
    randoms: List[FaultEvent],
) -> Tuple[List[FaultEvent], List[FaultEvent]]:
    """Drop rate-derived events that would partition at their fire time.

    Replays the combined failures chronologically (then in schedule order)
    and checks connectivity after each tentative random failure.  Explicit
    events are applied unconditionally — they are the user's stated
    scenario, and the interconnect raises :class:`FabricPartitionedError`
    at injection if they cut the fabric.  Returns ``(kept, skipped)``,
    each in replay order.
    """
    ordered = sorted(
        enumerate(explicit + randoms), key=lambda item: (item[1].at, item[0])
    )
    dead_channels: Set[Channel] = set()
    kept: List[FaultEvent] = []
    skipped: List[FaultEvent] = []
    for _seq, event in ordered:
        dead_channels.add(event.channel)
        if event.source == "random" and unreachable_pairs(
                topology, dead_channels):
            dead_channels.discard(event.channel)
            skipped.append(event)
        else:
            kept.append(event)
    return kept, skipped


# ----------------------------------------------------------------------
# CLI spec grammars (``repro run --faults`` / ``--link-profile``)
# ----------------------------------------------------------------------
_LINK_FAULT_RE = re.compile(r"^(\d+)\s*([>-])\s*(\d+)\s*@\s*(\d+)$")
_PROFILE_RE = re.compile(
    r"^(\d+)\s*([>-])\s*(\d+)\s*=\s*([0-9.]*)(?::\s*([0-9.]+))?$"
)


def parse_fault_spec(text: str) -> Dict[str, object]:
    """``--faults`` grammar -> SystemConfig override fields.

    Comma-separated clauses::

        0>1@100        directed channel (0, 1) fails at cycle 100
        0-1@100        both directions fail
        rate=0.1       fraction of channels failed (seed-derived)
        seed=7         fault_seed for the rate-derived draws
        window=20000   rate-derived fault times drawn from [0, window)

    Every fault is permanent.

    Returns only the fields the spec mentions, ready for
    ``SystemConfig.with_`` or a sweep's ``base_overrides``.
    """
    links: List[Tuple[int, int, int]] = []
    overrides: Dict[str, object] = {}
    scalar_fields = {
        "rate": ("fault_link_rate", float),
        "seed": ("fault_seed", int),
        "window": ("fault_window_cycles", int),
    }
    for raw in text.split(","):
        clause = raw.strip()
        if not clause:
            continue
        key, eq, value = clause.partition("=")
        if eq and key.strip() in scalar_fields:
            name, cast = scalar_fields[key.strip()]
            try:
                overrides[name] = cast(value.strip())
            except ValueError:
                raise ValueError(
                    f"bad --faults value in {clause!r}: expected a "
                    f"{cast.__name__}"
                )
            continue
        match = _LINK_FAULT_RE.match(clause)
        if match:
            src, direction, dst, at = match.groups()
            links.append((int(src), int(dst), int(at)))
            if direction == "-":
                links.append((int(dst), int(src), int(at)))
            continue
        raise ValueError(
            f"bad --faults clause {clause!r}; expected SRC>DST@AT, "
            f"SRC-DST@AT, or {'/'.join(sorted(scalar_fields))}=VALUE"
        )
    if links:
        overrides["fault_links"] = tuple(links)
    if not overrides:
        raise ValueError("--faults spec is empty")
    return overrides


def parse_link_profile(text: str) -> Tuple:
    """``--link-profile`` grammar -> the ``link_profile`` config tuple.

    Comma-separated clauses, ``BANDWIDTH[:LATENCY]`` per channel::

        0-1=6.4:80     both directions of (0, 1): 6.4 GB/s, 80 ns
        2>3=12.8       directed (2, 3): 12.8 GB/s, global latency
        1>0=:100       directed (1, 0): global bandwidth, 100 ns
    """
    entries: List[Tuple[int, int, Optional[float], Optional[float]]] = []
    for raw in text.split(","):
        clause = raw.strip()
        if not clause:
            continue
        match = _PROFILE_RE.match(clause)
        if not match:
            raise ValueError(
                f"bad --link-profile clause {clause!r}; expected "
                "SRC>DST=BANDWIDTH[:LATENCY] or SRC-DST=BANDWIDTH[:LATENCY]"
            )
        src, direction, dst, gbps, lat = match.groups()
        if not gbps and lat is None:
            raise ValueError(
                f"--link-profile clause {clause!r} overrides nothing"
            )
        entry = (
            int(src),
            int(dst),
            float(gbps) if gbps else None,
            float(lat) if lat is not None else None,
        )
        entries.append(entry)
        if direction == "-":
            entries.append((entry[1], entry[0], entry[2], entry[3]))
    if not entries:
        raise ValueError("--link-profile spec is empty")
    return tuple(entries)
