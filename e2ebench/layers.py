"""Outside-in layer tracing for the end-to-end benchmark.

The tracer never edits the program: :func:`install` wraps the public entry
points of each layer at class (or module) level, before any ``NDPSystem``
is built, so every bound method the simulator later takes — including the
callbacks it hands to the event kernel — goes through a span.

A span records the host seconds between entry and exit; a layer's *self*
time is its spans' durations minus the part covered by child spans.
Callbacks the kernel dispatches are attributed by the module that defines
them (:data:`MODULE_LAYERS`), not lumped into the kernel: the patched
``Simulator.schedule``/``schedule_at`` route each callback through
:meth:`Tracer.dispatch`, which opens a ``<layer>.dispatch`` span.  Program
generators are resumed by core callbacks, so their bodies count as core.

:func:`profile_shares` groups a cProfile pass by the same module map, so
the outside-in spans can be checked against an independent profiler.
"""

from __future__ import annotations

import functools
import os
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, Iterable, List

#: layers in display order; ``other`` collects modules the map misses.
LAYERS = ("harness", "workloads", "system", "engine", "core", "mechanism",
          "memsys", "interconnect", "other")

#: module prefix -> layer; the first match wins.
MODULE_LAYERS = (
    ("repro.harness", "harness"),
    ("repro.workloads", "workloads"),
    ("repro.sim.system", "system"),
    ("repro.sim.engine", "engine"),
    ("repro.sim.core", "core"),
    ("repro.sim.program", "core"),
    ("repro.sim.smt", "core"),
    ("repro.sim.syncif", "mechanism"),
    ("repro.core", "mechanism"),
    ("repro.sync", "mechanism"),
    ("repro.coherence", "mechanism"),
    ("repro.sim.memsys", "memsys"),
    ("repro.sim.cache", "memsys"),
    ("repro.sim.dram", "memsys"),
    ("repro.sim.memmap", "memsys"),
    ("repro.sim.network", "interconnect"),
    ("repro.sim.topo", "interconnect"),
)


def layer_of(module: str) -> str:
    """The layer a module belongs to (``other`` when unmapped)."""
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "other"


class Tracer:
    """Span self-time and call counts, keyed by ``<layer>.<entry>`` name."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: child-time accumulators of the open spans; the bottom is the root.
        self._stack: List[float] = [0.0]
        #: callback code object (or type) -> dispatch span name.
        self._dispatch_names: Dict[object, str] = {}
        #: the tracer's own seconds per span, [inside the span's window,
        #: inside its parent's]; kept out of self-times (see calibrate).
        self.cost: List[float] = [0.0, 0.0]

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` inside a span called ``name``."""
        stack, self_s, calls, cost = (self._stack, self.self_s, self.calls,
                                      self.cost)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                self_s[name] += elapsed - stack.pop() - cost[0]
                stack[-1] += elapsed + cost[1]
                calls[name] += 1

        return traced

    def dispatch(self, name: str, callback: Callable, *args) -> None:
        """Kernel entry for a scheduled callback: one ``name`` span."""
        stack = self._stack
        stack.append(0.0)
        t0 = perf_counter()
        try:
            callback(*args)
        finally:
            elapsed = perf_counter() - t0
            self.self_s[name] += elapsed - stack.pop() - self.cost[0]
            stack[-1] += elapsed + self.cost[1]
            self.calls[name] += 1

    def calibrate(self, spans: int = 50000, trials: int = 3) -> None:
        """Measure :attr:`cost` on a no-op, so self-times exclude it.

        Part of a span's cost falls inside its own timed window (argument
        forwarding), part in its parent's (the wrapper frame and the
        bookkeeping); a parent looping over wrapped no-ops shows both.
        """
        def noop():
            pass

        def loop(fn):
            for _ in range(spans):
                fn()

        inner, outer = self.wrap("cal.inner", noop), self.wrap("cal.outer", loop)
        trial_costs = []
        for _ in range(trials):
            self.self_s.clear()
            start = perf_counter()
            loop(noop)
            bare = perf_counter() - start
            outer(inner)
            trial_costs.append((self.self_s["cal.inner"] / spans,
                                (self.self_s["cal.outer"] - bare) / spans))
        self.cost[:] = [max(0.0, min(c[i] for c in trial_costs))
                        for i in (0, 1)]
        self.self_s.clear()
        self.calls.clear()

    def dispatch_name(self, callback: Callable) -> str:
        """``<layer>.dispatch`` for the module that defines ``callback``."""
        func = getattr(callback, "__func__", callback)
        func = getattr(func, "__wrapped__", func)
        key = getattr(func, "__code__", None) or type(func)
        name = self._dispatch_names.get(key)
        if name is None:
            module = getattr(func, "__module__", None) or type(func).__module__
            name = self._dispatch_names[key] = f"{layer_of(module)}.dispatch"
        return name

    # ------------------------------------------------------------------
    def patch(self, owner: object, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (class or module) with a traced wrapper."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, self.wrap(name, original))

    def patch_scheduling(self, simulator_cls: type) -> None:
        """Route every scheduled callback through :meth:`dispatch`.

        Scheduling itself (the queue push) is kernel work done on behalf
        of the caller, so it gets an ``engine.schedule`` span.
        """
        dispatch, dispatch_name = self.dispatch, self.dispatch_name
        for attr in ("schedule", "schedule_at"):
            original = simulator_cls.__dict__[attr]

            def routed(sim, when, callback, *args, _original=original):
                _original(sim, when, dispatch, dispatch_name(callback),
                          callback, *args)

            setattr(simulator_cls, attr, self.wrap(
                "engine.schedule", functools.wraps(original)(routed)))


def _subclasses(cls: type) -> Iterable[type]:
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install() -> Tracer:
    """Wrap every layer's entry points; call before any system is built."""
    from repro.harness import runner, specs, store
    from repro.sim import system as system_mod
    from repro.sim.cache import L1Cache
    from repro.sim.dram import DramDevice
    from repro.sim.engine import Simulator
    from repro.sim.memsys import MemorySystem
    from repro.sim.network import Interconnect
    from repro.sim.syncif import MechanismBase
    from repro.workloads import base as workloads_base

    tracer = Tracer()
    tracer.calibrate()
    # harness: spec planning, drain, execution glue, the result store
    tracer.patch(runner, "run_specs", "harness.run_specs")
    tracer.patch(runner, "execute_spec", "harness.execute_spec")
    tracer.patch(runner, "open_store", "harness.store")
    for attr in ("cache_key", "config"):
        tracer.patch(specs.RunSpec, attr, f"harness.spec_{attr}")
    for attr in ("get", "put"):
        tracer.patch(store.ShardedDirStore, attr, "harness.store")
    # workloads: input generation (the registry builders), build, verify
    for key in list(specs.WORKLOAD_BUILDERS):
        specs.WORKLOAD_BUILDERS[key] = tracer.wrap(
            "workloads.build", specs.WORKLOAD_BUILDERS[key])
    for cls in [workloads_base.Workload, *_subclasses(workloads_base.Workload)]:
        for attr in ("build", "verify"):
            if attr in cls.__dict__:
                tracer.patch(cls, attr, f"workloads.{attr}")
    # system: assembly and the metrics snapshot
    tracer.patch(system_mod.NDPSystem, "__init__", "system.build")
    tracer.patch(workloads_base, "collect_metrics", "system.collect")
    # engine: the drain loops; callbacks become <layer>.dispatch spans
    tracer.patch(Simulator, "run", "engine.run")
    tracer.patch(Simulator, "step", "engine.run")
    tracer.patch_scheduling(Simulator)
    # mechanism: request injection on every mechanism class
    system_mod._mechanism_registry()  # imports every mechanism module
    for cls in [MechanismBase, *_subclasses(MechanismBase)]:
        for attr in ("request", "request_async", "rmw"):
            if attr in cls.__dict__:
                tracer.patch(cls, attr, "mechanism.call")
    # memsys
    tracer.patch(MemorySystem, "access", "memsys.access")
    tracer.patch(MemorySystem, "device_access", "memsys.access")
    tracer.patch(L1Cache, "access", "memsys.l1")
    tracer.patch(DramDevice, "access", "memsys.dram")
    # interconnect
    tracer.patch(Interconnect, "transfer_latency", "interconnect.transfer")
    tracer.patch(Interconnect, "remote_latency", "interconnect.remote")
    tracer.patch(Interconnect, "local_latency", "interconnect.local")
    tracer.patch(Interconnect, "remote_hops", "interconnect.hops")
    return tracer


def profile_shares(profile) -> Dict[str, float]:
    """Share of cProfile self-time per layer, by the defining module.

    Builtins (``max``, ``dict.get``, ...) and standard-library functions
    belong to no layer of their own; like a span around their caller, their
    self-time goes to their callers' layers, in proportion to the time each
    caller spent in them (recursively, for library-calls-library chains).
    """
    import pstats

    stats = pstats.Stats(profile).stats
    modules = {path: _repro_module(path) for path in {f[0] for f in stats}}
    memo: Dict[tuple, Dict[str, float]] = {}

    def layers_of(func: tuple, seen: frozenset) -> Dict[str, float]:
        module = modules.get(func[0])
        if module is not None:
            return {layer_of(module): 1.0}
        if func in memo:
            return memo[func]
        callers = stats[func][4] if func in stats else {}
        spent = sum(entry[2] for entry in callers.values())
        if not spent or func in seen:
            return {"other": 1.0}
        split: Dict[str, float] = defaultdict(float)
        for caller, entry in callers.items():
            for layer, share in layers_of(caller, seen | {func}).items():
                split[layer] += share * entry[2] / spent
        memo[func] = split
        return split

    totals = {layer: 0.0 for layer in LAYERS}
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, share in layers_of(func, frozenset()).items():
            totals[layer] += tottime * share
    whole = sum(totals.values())
    return {layer: seconds / whole for layer, seconds in totals.items()}


def _repro_module(path: str):
    """``repro.sim.core`` for ``<package dir>/sim/core.py``, else None."""
    import repro

    root = os.path.dirname(os.path.abspath(repro.__file__))
    path = os.path.abspath(path)
    if not path.endswith(".py") or not path.startswith(root + os.sep):
        return None
    dotted = ["repro", *os.path.relpath(path[:-3], root).split(os.sep)]
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)
