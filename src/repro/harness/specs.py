"""Declarative experiment specs (the sweep runner's input language).

A :class:`RunSpec` is a frozen, hashable, picklable description of ONE
simulation: which workload to build (by registry key + plain-data kwargs),
which mechanism to run it under, which :class:`~repro.sim.config.SystemConfig`
preset + overrides to use, and an optional seed.  Because a spec contains
only plain data it can cross process boundaries (``--workers N``) and be hashed
into a stable cache key, so a figure re-run only simulates cache misses.

Two kinds of registry targets exist:

- **workloads** (:data:`WORKLOAD_BUILDERS`): builders returning a
  :class:`~repro.workloads.base.Workload`; the runner executes them through
  :func:`~repro.workloads.base.run_workload` and caches
  :class:`~repro.workloads.base.RunMetrics`.
- **measurements** (:data:`MEASUREMENTS`): dotted paths to functions
  ``fn(config, mechanism, **args) -> dict`` for experiments that drive a
  system directly (Table 1, Fig. 2, the fairness/SMT ablations); the runner
  caches the returned plain dict.

Each workload family other than the primitive microbenchmark (which
:mod:`repro.workloads` loads anyway) is imported where it is first
needed, by the validation in :meth:`RunSpec.make` or by its builder, so
a process compiles only the families its specs run.  ``RunSpec.make``
validates an ``app``/``structure`` spec's names, which imports that
family before the first spec runs.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
from dataclasses import dataclass, fields as dataclass_fields
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.sim.config import MEMORY_TECHNOLOGIES, PRESETS, SystemConfig
from repro.sim.system import MECHANISM_NAMES
from repro.workloads.base import Workload, scale
from repro.workloads.microbench import PRIMITIVES, PrimitiveMicrobench

#: the installed ``repro`` package, whose source the store epoch hashes.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def tree_digest(root: "str | os.PathLike") -> str:
    """SHA-256 over the relative path and bytes of every ``.py`` file
    under ``root``, in sorted path order (``__pycache__`` skipped)."""
    paths = []
    for directory, subdirs, files in os.walk(root):
        subdirs[:] = [name for name in subdirs if name != "__pycache__"]
        rel = os.path.relpath(directory, root).replace(os.sep, "/")
        prefix = "" if rel == "." else rel + "/"
        paths.extend(prefix + name for name in files if name.endswith(".py"))
    if not paths:
        raise RuntimeError(f"no Python source under {root}")
    digest = hashlib.sha256()
    for path in sorted(paths):
        with open(os.path.join(root, path), "rb") as fh:
            data = fh.read()
        digest.update(f"{path}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def source_epoch() -> str:
    """The result-store epoch: :func:`tree_digest` of the ``repro`` package.

    Simulator code, workload inputs, measurements and the record schema
    all live in the package, so any edit to a ``.py`` file gives every
    spec a new cache key and marks every stored record stale.
    """
    return tree_digest(PACKAGE_ROOT)

#: CLI-friendly aliases for SystemConfig override fields.
CONFIG_ALIASES = {
    "elide": "elide_waits",
    "fault_rate": "fault_link_rate",
    "link_latency": "link_latency_ns",
    "st": "st_entries",
    "topo": "topology",
    "units": "num_units",
}


# ----------------------------------------------------------------------
# Canonical plain-data freezing (dict kwargs <-> hashable tuples)
# ----------------------------------------------------------------------
def freeze(value):
    """Recursively convert plain data into a hashable canonical form."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(freeze(v) for v in value)
    if isinstance(value, (str, int, float, bool, type(None))):
        return value
    raise TypeError(
        f"spec values must be plain data (str/int/float/bool/None/"
        f"sequences/mappings), got {type(value).__name__}: {value!r}"
    )


def _frozen_kwargs(args: Optional[Mapping]) -> Tuple:
    return freeze(dict(args or {}))


def thaw_kwargs(frozen: Tuple) -> Dict[str, Any]:
    """Invert :func:`freeze` one level: a frozen kwargs tuple back to a dict."""
    return {key: value for key, value in frozen}


def _jsonable(value):
    """Frozen form -> JSON-dumpable (tuples become lists)."""
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RunSpec:
    """Frozen description of one simulation run."""

    workload: str
    args: Tuple = ()
    mechanism: str = "syncron"
    preset: str = "ndp_2_5d"
    overrides: Tuple = ()
    seed: Optional[int] = None
    #: REPRO_SCALE captured at spec-construction time, so a worker process
    #: reproduces the exact sizes regardless of its own environment.
    scale: str = "small"

    @classmethod
    def make(cls, workload: str, mechanism: str = "syncron",
             args: Optional[Mapping] = None, preset: str = "ndp_2_5d",
             overrides: Optional[Mapping] = None, seed: Optional[int] = None,
             run_scale: Optional[str] = None) -> "RunSpec":
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; choose from {sorted(PRESETS)}")
        if workload not in WORKLOAD_BUILDERS and workload not in MEASUREMENTS:
            raise ValueError(
                f"unknown workload {workload!r}; choose from "
                f"{sorted([*WORKLOAD_BUILDERS, *MEASUREMENTS])}"
            )
        error = _args_error(workload, args or {})
        if error:
            raise ValueError(error)
        # measurements legitimately run baselines no NDPSystem has
        # (coherent / mesi in Table 1 and Fig. 2).
        if workload in WORKLOAD_BUILDERS and mechanism not in MECHANISM_NAMES:
            raise ValueError(f"unknown mechanism {mechanism!r}; choose from "
                             f"{sorted(MECHANISM_NAMES)}")
        if seed is not None and type(seed) is not int:
            raise ValueError(f"seed must be an int, got {seed!r}")
        if workload not in SEEDABLE_WORKLOADS:
            # the seed is never forwarded to these, so hashing it would
            # split cache entries between physically identical runs.
            seed = None
        spec = cls(
            workload=workload,
            args=_frozen_kwargs(args),
            mechanism=mechanism,
            preset=preset,
            overrides=_frozen_kwargs(_canonical_overrides(overrides)),
            seed=seed,
            scale=run_scale or scale(),
        )
        # Every plan, sweep and co-run builds its specs here, so a bad
        # override fails while planning, before any worker simulates.
        spec.config().validate()
        return spec

    # ------------------------------------------------------------------
    def args_dict(self) -> Dict[str, Any]:
        return thaw_kwargs(self.args)

    def overrides_dict(self) -> Dict[str, Any]:
        return thaw_kwargs(self.overrides)

    def config(self) -> SystemConfig:
        """Resolve preset + overrides into the concrete SystemConfig."""
        cfg = PRESETS[self.preset]()
        overrides = self.overrides_dict()
        if not overrides:
            return cfg
        if isinstance(overrides.get("memory"), str):
            name = overrides["memory"]
            try:
                overrides["memory"] = MEMORY_TECHNOLOGIES[name]
            except KeyError:
                raise ValueError(
                    f"unknown memory technology {name!r}; choose from "
                    f"{sorted(MEMORY_TECHNOLOGIES)}"
                )
        return cfg.with_(**overrides)

    def is_measurement(self) -> bool:
        return self.workload in MEASUREMENTS

    def build_workload(self) -> Workload:
        builder = WORKLOAD_BUILDERS[self.workload]
        kwargs = self.args_dict()
        # only seedable builders take the spec seed; a --seed on a mixed
        # CLI sweep must not crash the deterministic-anyway workloads.
        if self.seed is not None and self.workload in SEEDABLE_WORKLOADS:
            kwargs.setdefault("seed", self.seed)
        return builder(**kwargs)

    def measurement_fn(self) -> Callable:
        return resolve_dotted(MEASUREMENTS[self.workload])

    # ------------------------------------------------------------------
    def cache_key(self) -> str:
        """Stable hex digest over every field that determines the result.

        The *resolved* config is hashed (not preset + overrides), so any
        changed field — including nested DramTiming/EnergyParams values or
        a changed preset default — produces a different key.  The
        :func:`source_epoch` is hashed too, so any code change does as well.
        """
        payload = {
            "epoch": source_epoch(),
            "workload": self.workload,
            "args": _jsonable(self.args),
            "mechanism": self.mechanism,
            "config": self.config().as_dict(),
            "seed": self.seed,
            "scale": self.scale,
        }
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human label (for progress/log lines)."""
        args = ",".join(f"{k}={v}" for k, v in self.args)
        overrides = ",".join(f"{k}={v}" for k, v in self.overrides)
        parts = [self.workload]
        if args:
            parts.append(f"({args})")
        parts.append(f"/{self.mechanism}")
        if overrides:
            parts.append(f"[{overrides}]")
        return "".join(parts)


def _canonical_overrides(overrides: Optional[Mapping]) -> Dict[str, Any]:
    """Apply CLI aliases, normalize numeric types, reject unknown fields.

    Numeric values are coerced to the field's declared type so that e.g.
    ``link_latency=40`` (CLI, int) and ``link_latency_ns=40.0`` (figure
    code, float) hash to the same cache key.
    """
    if not overrides:
        return {}
    defaults = {
        f.name: f.default for f in dataclass_fields(SystemConfig)
    }
    result = {}
    for key, value in overrides.items():
        key = CONFIG_ALIASES.get(key, key)
        if key not in defaults:
            raise ValueError(
                f"unknown SystemConfig field {key!r}; valid fields: "
                f"{sorted(defaults)}"
            )
        default = defaults[key]
        if (isinstance(default, float) and isinstance(value, int)
                and not isinstance(value, bool)):
            value = float(value)
        elif (isinstance(default, int) and not isinstance(default, bool)
                and isinstance(value, float) and value.is_integer()):
            value = int(value)
        result[key] = value
    return result


# ----------------------------------------------------------------------
# Workload registry
# ----------------------------------------------------------------------
def split_combo(combo: str) -> Tuple[str, str]:
    """Validate and split an app-input combo (``bfs.wk``, ``ts.air``).

    The single source of the combo grammar: both the workload builder and
    the CLI's pre-flight validation use it, so error messages can't drift.
    """
    app, _, dataset = combo.partition(".")
    if not dataset:
        raise ValueError(f"app combo must look like 'bfs.wk', got {combo!r}")
    if app == "ts":
        from repro.workloads.timeseries import DATASETS as TS_DATASET_NAMES

        if dataset not in TS_DATASET_NAMES:
            raise ValueError(
                f"unknown ts dataset {dataset!r}; choose from "
                f"{sorted(TS_DATASET_NAMES)}"
            )
        return app, dataset
    from repro.workloads.graphs import ALL_KERNELS
    from repro.workloads.graphs.datasets import DATASETS as GRAPH_DATASET_NAMES

    if app not in ALL_KERNELS:
        raise ValueError(
            f"unknown application {app!r}; choose from {sorted(ALL_KERNELS)} or 'ts'"
        )
    if dataset not in GRAPH_DATASET_NAMES:
        raise ValueError(
            f"unknown graph dataset {dataset!r}; choose from "
            f"{sorted(GRAPH_DATASET_NAMES)}"
        )
    return app, dataset


def validate_names(apps: Sequence[str] = (), structures: Sequence[str] = (),
                   primitives: Sequence[str] = ()) -> Optional[str]:
    """First invalid workload name among the given ones, or None.

    Lets planning fail fast with a friendly message instead of surfacing a
    worker-process traceback mid-sweep.
    """
    try:
        for combo in apps:
            split_combo(combo)
    except ValueError as exc:
        return str(exc)
    if structures:
        from repro.workloads.datastructures import ALL_STRUCTURES

        for s in structures:
            if s not in ALL_STRUCTURES:
                return f"unknown structure {s!r}; choose from {sorted(ALL_STRUCTURES)}"
    for p in primitives:
        if p not in PRIMITIVES:
            return f"unknown primitive {p!r}; choose from {sorted(PRIMITIVES)}"
    return None


def _args_error(workload: str, args: Mapping) -> Optional[str]:
    """The first bad name or non-int count in a workload's ``args``, or
    None: what would otherwise fail mid-run, inside the builder."""
    if workload == "app" and "combo" in args:
        return validate_names(apps=(str(args["combo"]),))
    if workload == "structure" and "structure" in args:
        return validate_names(structures=(args["structure"],))
    if workload == "primitive":
        for key in ("interval", "rounds"):
            value = args.get(key, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                return f"primitive {key} must be an int, got {value!r}"
        if "primitive" in args:
            return validate_names(primitives=(args["primitive"],))
    return None


def build_app(combo: str, partitioner: Optional[str] = None,
              seed: Optional[int] = None) -> Workload:
    """One of the paper's application-input combos, e.g. ``bfs.wk``/``ts.air``."""
    app, dataset = split_combo(combo)
    if app == "ts":
        from repro.workloads.timeseries import TimeSeriesWorkload

        kwargs = {} if seed is None else {"seed": seed}
        return TimeSeriesWorkload(dataset, **kwargs)
    from repro.workloads.graphs import ALL_KERNELS

    kwargs = {"dataset": dataset}
    if partitioner is not None:
        kwargs["partitioner"] = partitioner
    if seed is not None:
        kwargs["seed"] = seed
    return ALL_KERNELS[app](**kwargs)


def build_structure(structure: str, **kwargs) -> Workload:
    """A Table 6 concurrent data structure by name (e.g. ``stack``)."""
    from repro.workloads.datastructures import ALL_STRUCTURES

    try:
        cls = ALL_STRUCTURES[structure]
    except KeyError:
        raise ValueError(
            f"unknown structure {structure!r}; choose from {sorted(ALL_STRUCTURES)}"
        )
    return cls(**kwargs)


def build_primitive(primitive: str, interval: int, rounds: int = 50) -> Workload:
    return PrimitiveMicrobench(primitive, interval, rounds=rounds)


def build_rwbench(**kwargs) -> Workload:
    from repro.workloads.rwbench import RWLockMicrobench

    return RWLockMicrobench(**kwargs)


def build_unionfind(**kwargs) -> Workload:
    from repro.workloads.unionfind import UnionFindWorkload

    return UnionFindWorkload(**kwargs)


# ----------------------------------------------------------------------
# Co-run (multi-tenant) workloads
# ----------------------------------------------------------------------
def _unfrozen(value):
    """Undo :func:`freeze` on a tenant field: pair-tuples back to dicts."""
    if isinstance(value, Mapping):
        return {str(k): _unfrozen(v) for k, v in value.items()}
    if (isinstance(value, tuple)
            and all(isinstance(p, tuple) and len(p) == 2
                    and isinstance(p[0], str) for p in value)):
        return {k: _unfrozen(v) for k, v in value}
    if isinstance(value, (list, tuple)):
        return [_unfrozen(v) for v in value]
    return value


def build_corun(tenants) -> Workload:
    """A multi-tenant co-run from plain-data tenant descriptions.

    ``tenants`` is a sequence of mappings (or their frozen spec forms), one
    per tenant::

        {"name": "locky", "workload": "primitive",
         "args": {"primitive": "lock", "interval": 200, "rounds": 25},
         "units": [0, 1]}   # or "core_ids": [0, 1, 2], or neither

    ``workload`` is any (non-corun) :data:`WORKLOAD_BUILDERS` key; the
    partition knobs match :class:`repro.workloads.corun.TenantSpec`.
    """
    from repro.workloads.corun import CorunWorkload, TenantSpec

    if not tenants:
        raise ValueError("corun needs at least one tenant")
    specs = []
    for i, raw in enumerate(tenants):
        tenant = _unfrozen(raw)
        if not isinstance(tenant, dict):
            raise ValueError(f"tenant #{i} must be a mapping, got {raw!r}")
        workload = tenant.get("workload")
        if workload == "corun":
            raise ValueError("co-runs do not nest")
        if workload not in WORKLOAD_BUILDERS:
            raise ValueError(
                f"tenant #{i}: unknown workload {workload!r}; choose from "
                f"{sorted(k for k in WORKLOAD_BUILDERS if k != 'corun')}"
            )
        args = tenant.get("args") or {}
        builder = WORKLOAD_BUILDERS[workload]
        units = tenant.get("units")
        core_ids = tenant.get("core_ids")
        specs.append(TenantSpec(
            name=str(tenant.get("name") or f"t{i}"),
            factory=lambda builder=builder, args=dict(args): builder(**args),
            units=tuple(int(u) for u in units) if units is not None else None,
            core_ids=(tuple(int(c) for c in core_ids)
                      if core_ids is not None else None),
        ))
    return CorunWorkload(specs)


#: registry key -> builder returning a fresh single-use Workload.
WORKLOAD_BUILDERS: Dict[str, Callable[..., Workload]] = {
    "app": build_app,
    "structure": build_structure,
    "primitive": build_primitive,
    "rwbench": build_rwbench,
    "unionfind": build_unionfind,
    "corun": build_corun,
}

#: builders whose constructors accept a ``seed`` keyword; RunSpec.seed is
#: forwarded only to these (the rest are deterministic by construction).
SEEDABLE_WORKLOADS = frozenset({"app", "structure"})

#: registry key -> "module:function" measurement target.
MEASUREMENTS: Dict[str, str] = {
    "coherence_lock": "repro.harness.measurements:coherence_lock_case",
    "mesi_stack": "repro.harness.measurements:mesi_stack_cycles",
    "fairness": "repro.harness.measurements:fairness_point",
    "smt": "repro.harness.measurements:smt_point",
    "fabric_probe": "repro.harness.measurements:fabric_probe",
}


def resolve_dotted(path: str) -> Callable:
    """Import ``module:function`` (measurement registry values)."""
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, attr)
