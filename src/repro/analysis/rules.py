"""The lint rules (RP001..RP006), each guarding a shipped failure mode.

Every rule here exists because this repository has already had (and fixed)
the bug it guards — see CHANGES.md: per-process-randomized ``hash(name)``
seeds (PR 2), config fields missed by ``as_dict``/``stable_hash`` forcing
hand-made cache-version bumps, closure-allocating
``schedule(lambda: ...)`` call sites regressing the PR-1 hot path, and
telemetry that must never touch physics.  Rules are deliberately scoped to
the module namespaces where the invariant matters; a violation elsewhere
is noise, not risk.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set, Tuple

from repro.analysis.base import (
    Finding,
    Module,
    Rule,
    call_name,
    dotted_name,
    register,
)

#: namespaces whose code determines simulated physics: nondeterminism here
#: breaks bit-identity and cache correctness.
PHYSICS_MODULES = (
    "repro.sim",
    "repro.workloads",
    "repro.core",
    "repro.sync",
    "repro.coherence",
)

#: namespaces where iteration order feeds scheduling / routing decisions.
ORDER_SENSITIVE_MODULES = (
    "repro.sim.engine",
    "repro.sim.network",
    "repro.sim.topo",
    "repro.workloads.graphs",
)

#: namespaces that must observe, never steer, the simulation.
OBSERVER_MODULES = (
    "repro.telemetry",
    "repro.sim.engine",
    "repro.sim.chrometrace",
)


def _stats_inventory() -> Tuple[Set[str], Set[str]]:
    """(SystemStats field names, declared extra-counter keys), lazily.

    Imported at check time (not module import) so the analysis package
    stays importable without the simulator and the inventory can never go
    stale — it IS the dataclass.
    """
    from dataclasses import fields

    from repro.sim.stats import EXTRA_COUNTERS, SystemStats

    return {f.name for f in fields(SystemStats)}, set(EXTRA_COUNTERS)


# ----------------------------------------------------------------------
@register
class NondeterminismSources(Rule):
    """RP001: ambient nondeterminism in physics code.

    Wall-clock time, the process-global ``random`` module, ``os.urandom``,
    builtin ``hash()`` (salted per interpreter launch for str/bytes) and
    ``id()`` (allocation-order dependent) have no business influencing
    simulated physics: any of them silently breaks cross-process
    bit-identity, which both the determinism diffs and the result cache
    rely on.  Seeded ``random.Random(seed)`` instances are fine.
    """

    id = "RP001"
    title = "nondeterminism source in simulation/workload code"

    #: dotted call targets that read ambient state.
    BANNED_CALLS = {
        "time.time": "wall-clock time.time()",
        "time.time_ns": "wall-clock time.time_ns()",
        "datetime.now": "wall-clock datetime.now()",
        "datetime.utcnow": "wall-clock datetime.utcnow()",
        "datetime.datetime.now": "wall-clock datetime.now()",
        "datetime.datetime.utcnow": "wall-clock datetime.utcnow()",
        "os.urandom": "os.urandom()",
        "uuid.uuid4": "uuid.uuid4()",
    }
    #: random-module attributes that are *not* the global RNG.
    RANDOM_OK = {"Random", "SystemRandom"}
    BUILTINS = {
        "hash": "builtin hash() is salted per interpreter launch for "
                "str/bytes keys (use zlib.crc32 or hashlib for stable seeds)",
        "id": "id() depends on allocation order; never let it reach "
              "ordering or hashing decisions",
    }

    def check(self, module: Module) -> Iterator[Finding]:
        if not module.in_module(*PHYSICS_MODULES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            if name in self.BANNED_CALLS:
                yield self.finding(
                    module, node,
                    f"{self.BANNED_CALLS[name]} in physics code: simulated "
                    "behaviour must depend only on the config and seeds",
                )
            elif (name.startswith("random.")
                  and name.count(".") == 1
                  and name.split(".")[1] not in self.RANDOM_OK):
                yield self.finding(
                    module, node,
                    f"{name}() draws from the process-global RNG; construct "
                    "a seeded random.Random(seed) instead",
                )
            elif (isinstance(node.func, ast.Name)
                  and node.func.id in self.BUILTINS):
                yield self.finding(module, node, self.BUILTINS[node.func.id])


# ----------------------------------------------------------------------
class _SetTracker(ast.NodeVisitor):
    """Collects names/attributes bound to set-typed expressions."""

    SET_METHODS = {"union", "intersection", "difference",
                   "symmetric_difference"}
    SET_ANNOTATIONS = {"set", "frozenset", "Set", "FrozenSet", "AbstractSet",
                       "MutableSet"}

    def __init__(self):
        #: binding key ("name" or "self.attr") -> True when set-typed.
        self.set_bindings: Set[str] = set()

    @staticmethod
    def binding_key(node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)):
            return f"{node.value.id}.{node.attr}"
        return None

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = call_name(node)
            if name in ("set", "frozenset"):
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self.SET_METHODS):
                return True
        key = self.binding_key(node)
        return key is not None and key in self.set_bindings

    def _annotation_is_set(self, annotation: Optional[ast.AST]) -> bool:
        if annotation is None:
            return False
        base = annotation
        if isinstance(base, ast.Subscript):  # Set[Channel]
            base = base.value
        name = dotted_name(base)
        return name.rsplit(".", 1)[-1] in self.SET_ANNOTATIONS

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.is_set_expr(node.value):
            for target in node.targets:
                key = self.binding_key(target)
                if key:
                    self.set_bindings.add(key)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if self._annotation_is_set(node.annotation) or (
                node.value is not None and self.is_set_expr(node.value)):
            key = self.binding_key(node.target)
            if key:
                self.set_bindings.add(key)
        self.generic_visit(node)

    def visit_arg(self, node: ast.arg) -> None:
        if self._annotation_is_set(node.annotation):
            self.set_bindings.add(node.arg)
        self.generic_visit(node)


@register
class UnorderedIteration(Rule):
    """RP002: iterating a set in scheduling/routing-order-sensitive code.

    ``set`` iteration order is a CPython implementation detail (hash- and
    insertion-history-dependent); when the loop body schedules events,
    builds adjacency, or picks routes, that order becomes physics.  Wrap
    the iterable in ``sorted(...)`` — and say in a comment what the sort
    key pins down.  Membership tests are fine; only iteration is flagged.
    """

    id = "RP002"
    title = "unordered set iteration in order-sensitive code"

    #: conversion calls that preserve (and therefore leak) set order.
    ORDER_LEAKING_CALLS = {"list", "tuple", "iter", "enumerate"}

    def check(self, module: Module) -> Iterator[Finding]:
        if not module.in_module(*ORDER_SENSITIVE_MODULES):
            return
        tracker = _SetTracker()
        tracker.visit(module.tree)
        for node in ast.walk(module.tree):
            iters = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in self.ORDER_LEAKING_CALLS
                  and node.args):
                iters.append(node.args[0])
            for it in iters:
                if tracker.is_set_expr(it):
                    yield self.finding(
                        module, it,
                        "iteration over a set: CPython's set order is an "
                        "implementation detail — use sorted(...) with an "
                        "explicit key so the order is pinned by the code",
                    )


# ----------------------------------------------------------------------
@register
class ConfigFieldCoverage(Rule):
    """RP003: every SystemConfig field must reach serialization + validation.

    A field missing from ``as_dict``/``from_dict``/``stable_hash`` silently
    falls out of cache keys (two different machines collide on one cached
    result — the cache-version bug class); a field
    no validation ever reads can drift into nonsense without an error.
    Full-coverage idioms (``asdict(self)``, ``cls(**payload)``, hashing
    ``self.as_dict()``) satisfy the serialization legs wholesale.
    """

    id = "RP003"
    title = "SystemConfig field missing from serialization/validation"

    VALIDATION_METHODS = ("validate", "__post_init__")

    def check(self, module: Module) -> Iterator[Finding]:
        for node in module.tree.body:
            if isinstance(node, ast.ClassDef) and node.name == "SystemConfig":
                yield from self._check_class(module, node)

    def _check_class(self, module: Module,
                     cls: ast.ClassDef) -> Iterator[Finding]:
        config_fields: Dict[str, ast.AnnAssign] = {}
        methods: Dict[str, ast.FunctionDef] = {}
        for stmt in cls.body:
            if (isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                    and not stmt.target.id.startswith("_")
                    and "ClassVar" not in ast.dump(stmt.annotation)):
                config_fields[stmt.target.id] = stmt
            elif isinstance(stmt, ast.FunctionDef):
                methods[stmt.name] = stmt

        as_dict_cover = self._serialization_cover(
            methods.get("as_dict"), full_markers=("asdict",))
        from_dict_cover = self._serialization_cover(
            methods.get("from_dict"), full_markers=("cls",),
            star_kwargs=True)
        stable_cover = self._serialization_cover(
            methods.get("stable_hash"), full_markers=("as_dict",))
        if stable_cover is not None and as_dict_cover is None \
                and self._calls(methods.get("stable_hash"), "as_dict"):
            stable_cover = None  # inherits as_dict's full coverage

        validated: Set[str] = set()
        for name, fn in methods.items():
            if name in self.VALIDATION_METHODS or name.startswith("_validate"):
                validated |= self._self_reads(fn)

        for field_name, node in config_fields.items():
            for part, cover in (("as_dict", as_dict_cover),
                                ("from_dict", from_dict_cover),
                                ("stable_hash", stable_cover)):
                if cover is not None and field_name not in cover:
                    yield self.finding(
                        module, node,
                        f"SystemConfig.{field_name} is missing from "
                        f"{part}(): it would fall out of cache keys",
                    )
            if field_name not in validated:
                yield self.finding(
                    module, node,
                    f"SystemConfig.{field_name} is never read by validate()/"
                    "__post_init__/_validate_* — add a range or type check",
                )

    @staticmethod
    def _calls(fn: Optional[ast.FunctionDef], name: str) -> bool:
        if fn is None:
            return False
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and call_name(node).endswith(name):
                return True
        return False

    @staticmethod
    def _serialization_cover(fn: Optional[ast.FunctionDef],
                             full_markers: Tuple[str, ...] = (),
                             star_kwargs: bool = False) -> Optional[Set[str]]:
        """Field names a method enumerates, or None for full coverage."""
        if fn is None:
            return None  # absent method = nothing to check here
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                name = call_name(node)
                if any(name == m or name.endswith("." + m)
                       for m in full_markers):
                    if not star_kwargs:
                        return None
                    if any(kw.arg is None for kw in node.keywords):
                        return None  # cls(**payload)
        covered: Set[str] = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Dict):
                covered.update(
                    key.value for key in node.keys
                    if isinstance(key, ast.Constant)
                    and isinstance(key.value, str)
                )
            elif isinstance(node, ast.Call):
                covered.update(
                    kw.arg for kw in node.keywords if kw.arg is not None
                )
        return covered

    @staticmethod
    def _self_reads(fn: ast.FunctionDef) -> Set[str]:
        reads: Set[str] = set()
        for node in ast.walk(fn):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"):
                reads.add(node.attr)
        return reads


# ----------------------------------------------------------------------
@register
class ClosureScheduling(Rule):
    """RP004: ``schedule(lambda: ...)`` regresses the args-based hot path.

    PR 1's kernel rewrite converted every scheduling call site to
    ``sim.schedule(delay, bound_method, *args)`` — one closure allocation
    per event was the single largest cost in the event storm.  New lambdas
    (or nested defs) passed to ``schedule``/``schedule_at``/``wait`` put
    that allocation back, silently.
    """

    id = "RP004"
    title = "closure-capturing callback passed to the scheduler"

    SCHEDULING_CALLS = {"schedule", "schedule_at", "wait"}

    def check(self, module: Module) -> Iterator[Finding]:
        if not module.in_module("repro"):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            target = func.attr if isinstance(func, ast.Attribute) else (
                func.id if isinstance(func, ast.Name) else "")
            if target not in self.SCHEDULING_CALLS:
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                if isinstance(value, ast.Lambda):
                    yield self.finding(
                        module, value,
                        f"lambda passed to {target}(): pass a bound method "
                        "plus *args instead (one closure per event is the "
                        "hot-path cost PR 1 removed)",
                    )


# ----------------------------------------------------------------------
@register
class ObserverPurity(Rule):
    """RP005: telemetry/kernel-accounting code must not write physics.

    The telemetry bus and the kernel's elision/profile accounting are
    documented as bit-identical-by-construction: enabling them must never
    change a physics counter.  This rule bans writes to any
    :class:`~repro.sim.stats.SystemStats` field (including ``extra``)
    from the observer modules.
    """

    id = "RP005"
    title = "physics-counter write from observer code"

    def check(self, module: Module) -> Iterator[Finding]:
        if not module.in_module(*OBSERVER_MODULES):
            return
        physics, _extra = _stats_inventory()
        for node in ast.walk(module.tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                attr = self._stats_attr(target)
                if attr in physics:
                    yield self.finding(
                        module, node,
                        f"write to SystemStats.{attr} from observer module "
                        f"{module.module_name}: telemetry and kernel "
                        "accounting must never touch physics counters",
                    )

    @staticmethod
    def _stats_attr(target: ast.AST) -> Optional[str]:
        if isinstance(target, ast.Subscript):  # stats.extra["k"] = ...
            target = target.value
        if isinstance(target, ast.Attribute):
            return target.attr
        return None


# ----------------------------------------------------------------------
@register
class UndeclaredCounterKey(Rule):
    """RP006: ad-hoc counter keys must match the declared inventory.

    ``stats.extra[...]`` accepts any string at runtime, so a typo'd key
    (``"bakey_polls"``) creates a parallel counter that every report reads
    as zero.  Keys at bump/charge sites must be string literals present in
    :data:`repro.sim.stats.EXTRA_COUNTERS`.
    """

    id = "RP006"
    title = "undeclared or non-literal stats.extra counter key"

    def check(self, module: Module) -> Iterator[Finding]:
        if not module.in_module("repro"):
            return
        inventory: Optional[Set[str]] = None
        for node in ast.walk(module.tree):
            targets = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            for target in targets:
                if not (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and target.value.attr == "extra"):
                    continue
                if inventory is None:
                    _physics, inventory = _stats_inventory()
                key = target.slice
                if not (isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    yield self.finding(
                        module, node,
                        "non-literal stats.extra counter key: bump sites "
                        "must name their counter so the inventory check "
                        "can see it",
                    )
                elif key.value not in inventory:
                    yield self.finding(
                        module, node,
                        f"stats.extra[{key.value!r}] is not declared in "
                        "repro.sim.stats.EXTRA_COUNTERS — add it there (or "
                        "fix the typo)",
                    )
