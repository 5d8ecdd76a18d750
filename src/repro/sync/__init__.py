"""Synchronization mechanisms evaluated against SynCron.

- :class:`~repro.sync.central.CentralMechanism` — one server core system-wide.
- :class:`~repro.sync.hier.HierMechanism` — one server core per NDP unit.
- :class:`~repro.sync.ideal.IdealMechanism` — zero-overhead synchronization.
- :class:`~repro.sync.flat.FlatSynCronMechanism` — SynCron without hierarchy.
- :mod:`~repro.sync.overflow_alt` — MiSAR-style overflow variants (Fig. 23).
- :class:`~repro.sync.remote_atomics.RemoteAtomicsMechanism` and
  :class:`~repro.sync.bakery.BakeryMechanism` — Sec. 2.2.1 spin-wait
  baselines.
- :class:`~repro.sync.logic.SyncLogic` — timing-free reference semantics.

The package re-exports nothing: :data:`repro.sim.system.MECHANISMS` imports
each mechanism's module when a system first needs it, so a run loads only
the mechanism it simulates.
"""
