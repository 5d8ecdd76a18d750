"""Sweep execution: one single-host executor over the content store.

Every experiment plan (through :func:`run_plan`, which ``repro run``
calls) funnels through :func:`run_specs`: specs are deduplicated by
cache key, hits are served from the content-addressed
:class:`~repro.harness.store.ShardedDirStore`, and only the misses are
simulated.  Because every simulation is
deterministic (explicit seeds everywhere — see
:func:`repro.workloads.base.stable_name_seed`), any worker count produces
bit-identical rows, and a warm-store re-run executes zero simulations.

The calling process owns the whole sweep: it dedupes, probes the store,
and does every ``put`` itself.  With one worker the misses run in-process
through :func:`execute_spec`; with ``workers=N`` they are submitted in
spec order to a forked ``ProcessPoolExecutor`` of up to N processes, and
each result is published as its future completes.  A crashed worker
surfaces as ``BrokenProcessPool`` after the completed results are stored,
so a rerun simulates only what is missing.  Concurrent invocations on one
store stay safe through the store's first-durable-write-wins publish with
bit-identity verification; at worst both simulate the same spec.

The default store is ``dir:$REPRO_CACHE_DIR`` (default ``.repro-cache/``),
sharded one-file-per-result.  Keys cover the full resolved
:class:`~repro.sim.config.SystemConfig`, workload kwargs, mechanism, seed
and scale, plus the :func:`~repro.harness.specs.source_epoch` (a hash of
the ``repro`` package's source): after any code edit every spec misses
and every old record reads as stale, which ``repro cache gc`` deletes.

Caching defaults OFF for library calls (tests must never observe stale
physics) and ON in the CLI.
"""

from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.harness.specs import RunSpec
from repro.harness.store import ShardedDirStore, open_store
from repro.telemetry import configure, get_telemetry
from repro.workloads.base import RunMetrics, run_workload

#: what a run produces: RunMetrics for workload specs, a plain dict for
#: measurement specs.
RunResult = Union[RunMetrics, Dict]

#: what an experiment function returns: the runs it needs, and a render
#: that turns ``{spec: result}`` into the experiment's rows.
Plan = Tuple[Tuple[RunSpec, ...], Callable[[Mapping[RunSpec, RunResult]], Any]]


# ----------------------------------------------------------------------
# Execution options (how the CLI hands --workers/--store to run_specs)
# ----------------------------------------------------------------------
class ExecutionOptions:
    """Active sweep-execution policy; run_specs reads it via the module state."""

    def __init__(self, workers: int = 1, cache: bool = False,
                 store: Optional[str] = None, sanitize: bool = False):
        self.workers = workers
        self.cache = cache
        #: store url (``dir:PATH`` or a bare path); None = the deployment
        #: default, ``dir:$REPRO_CACHE_DIR`` (see :meth:`resolved_store_url`).
        self.store = store
        #: run the determinism sanitizer (``--sanitize``): simulators record
        #: per-cycle access sets and flag same-cycle ordering hazards.
        #: Forces the cache off (the debug run must actually execute) and
        #: the in-process path (worker subprocesses would not share the
        #: process-local sanitizer session).
        self.sanitize = sanitize

    def resolved_store_url(self) -> str:
        """The store to open: ``store``, else ``dir:$REPRO_CACHE_DIR``
        (default ``.repro-cache``)."""
        return self.store or "dir:" + os.environ.get("REPRO_CACHE_DIR",
                                                     ".repro-cache")


_OPTIONS = ExecutionOptions()

#: ExecutionOptions fields settable through the helpers below.
_OPTION_FIELDS = ("workers", "cache", "store", "sanitize")


def set_execution_options(workers: Optional[int] = None,
                          cache: Optional[bool] = None,
                          store: Optional[str] = None,
                          sanitize: Optional[bool] = None) -> None:
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        _OPTIONS.workers = workers
    if cache is not None:
        _OPTIONS.cache = cache
    if store is not None:
        _OPTIONS.store = store or None
    if sanitize is not None:
        _OPTIONS.sanitize = sanitize


def get_execution_options() -> ExecutionOptions:
    return _OPTIONS


@contextlib.contextmanager
def execution_options(workers: Optional[int] = None,
                      cache: Optional[bool] = None,
                      store: Optional[str] = None,
                      sanitize: Optional[bool] = None):
    """Temporarily override the active execution policy."""
    previous = {name: getattr(_OPTIONS, name) for name in _OPTION_FIELDS}
    try:
        set_execution_options(workers=workers, cache=cache, store=store,
                              sanitize=sanitize)
        yield _OPTIONS
    finally:
        for name, value in previous.items():
            setattr(_OPTIONS, name, value)


# ----------------------------------------------------------------------
# Stats (lets the CLI and tests observe hit/miss behaviour)
# ----------------------------------------------------------------------
class RunnerStats:
    """Counters accumulated across run_specs calls (reset explicitly)."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.requested = 0
        self.executed = 0
        self.cache_hits = 0
        self.deduplicated = 0

    def summary(self) -> str:
        text = (
            f"{self.requested} runs: {self.executed} simulated, "
            f"{self.cache_hits} served from cache"
        )
        if self.deduplicated:
            text += f", {self.deduplicated} deduplicated"
        return text


STATS = RunnerStats()


# ----------------------------------------------------------------------
# Single-spec execution (pool workers receive only the RunSpec, which is
# plain data)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _scale_env(scale: str):
    """Pin REPRO_SCALE to the spec's captured scale for the whole run."""
    previous = os.environ.get("REPRO_SCALE")
    os.environ["REPRO_SCALE"] = scale
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_SCALE", None)
        else:
            os.environ["REPRO_SCALE"] = previous


def execute_spec(spec: RunSpec) -> Dict:
    """Run one spec and return its store record body (kind + result)."""
    with get_telemetry().span("spec.execute", spec=spec.describe()):
        with _scale_env(spec.scale):
            config = spec.config()
            if spec.is_measurement():
                row = spec.measurement_fn()(config, spec.mechanism,
                                            **spec.args_dict())
                return {"kind": "row", "result": dict(row),
                        "spec": spec.describe()}
            metrics = run_workload(spec.build_workload, config, spec.mechanism)
            return {"kind": "metrics", "result": metrics.as_dict(),
                    "spec": spec.describe()}


def _record_to_result(record: Dict) -> RunResult:
    if record["kind"] == "metrics":
        return RunMetrics.from_dict(record["result"])
    return dict(record["result"])


# ----------------------------------------------------------------------
# The worker pool
# ----------------------------------------------------------------------
def _pool_context():
    import multiprocessing  # only pool sweeps load it

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _init_worker_telemetry(directory: Optional[str],
                           worker: Optional[str]) -> None:
    """Pool initializer: a fresh bus, so a forked worker never re-exports
    the counters it inherited from the parent."""
    configure(directory, worker=worker)


def _execute_in_worker(spec: RunSpec) -> Dict:
    """Pool entry point: run one spec, then persist this worker's
    telemetry snapshot (pool processes exit without a finalizer)."""
    try:
        return execute_spec(spec)
    finally:
        get_telemetry().export()


def _run_pool(pending: Dict[str, RunSpec], workers: int, finish) -> None:
    """Run ``pending`` in up to ``workers`` forked processes, calling
    ``finish(key, body)`` in this process as each spec completes.

    Every completed spec is finished before the first failure (a worker's
    exception, or ``BrokenProcessPool`` when a worker died) is re-raised.
    """
    # Imported here: in-process sweeps never load the pool machinery.
    from concurrent.futures import ProcessPoolExecutor, as_completed

    tel = get_telemetry()
    fresh_bus = {}
    if tel.enabled:
        fresh_bus = {"initializer": _init_worker_telemetry,
                     "initargs": (tel.directory, tel.worker)}
    error: Optional[BaseException] = None
    with ProcessPoolExecutor(max_workers=min(workers, len(pending)),
                             mp_context=_pool_context(), **fresh_bus) as pool:
        futures = {pool.submit(_execute_in_worker, spec): key
                   for key, spec in pending.items()}
        for future in as_completed(futures):
            try:
                body = future.result()
            except Exception as exc:
                error = error or exc
                continue
            finish(futures[future], body)
    if error is not None:
        raise error


# ----------------------------------------------------------------------
# Sweep execution
# ----------------------------------------------------------------------
def _open_result_store(use_cache: bool,
                       store: Optional[str]) -> Optional[ShardedDirStore]:
    """The store a call reads and writes (None when caching is off):
    ``store`` if given, else the active options' resolved url."""
    if not use_cache:
        return None
    return open_store(store or get_execution_options().resolved_store_url())


def run_specs(specs: Sequence[RunSpec], workers: Optional[int] = None,
              cache: Optional[bool] = None,
              store: Optional[str] = None) -> List[RunResult]:
    """Execute specs (deduplicated) and return results in spec order.

    All knobs default to the active :class:`ExecutionOptions` (library
    default: one worker, no cache).  Misses run in this process through
    :func:`execute_spec` when one worker is asked for or only one spec is
    pending, else in a process pool (see the module docstring).
    """
    options = get_execution_options()
    workers = options.workers if workers is None else workers
    use_cache = options.cache if cache is None else cache
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if options.sanitize:
        # Sanitized runs are debug runs: they must actually execute (a
        # cache hit would observe nothing) and the process-local sanitizer
        # session is invisible to worker subprocesses.
        use_cache = False
        workers = 1

    keys = [spec.cache_key() for spec in specs]
    result_store = _open_result_store(use_cache, store)

    # Deduplicate: identical specs simulate once per sweep.
    results_by_key: Dict[str, RunResult] = {}
    pending: Dict[str, RunSpec] = {}
    seen = set()
    for spec, key in zip(specs, keys):
        if key in seen:
            STATS.deduplicated += 1
            continue
        seen.add(key)
        cached = result_store.get(key) if result_store is not None else None
        if cached is None:
            pending[key] = spec
        else:
            results_by_key[key] = _record_to_result(cached)
            STATS.cache_hits += 1

    def finish(key: str, body: Dict) -> None:
        if result_store is not None:
            result_store.put(key, body)
        results_by_key[key] = _record_to_result(body)
        STATS.executed += 1

    if workers == 1 or len(pending) < 2:
        for key, spec in pending.items():
            finish(key, execute_spec(spec))
    else:
        _run_pool(pending, workers, finish)

    STATS.requested += len(specs)
    return [results_by_key[key] for key in keys]


def probe_specs(specs: Sequence[RunSpec], cache: Optional[bool] = None,
                store: Optional[str] = None) -> List[str]:
    """Classify each spec against the store WITHOUT executing anything.

    Returns one status per spec, in order: ``"cached"`` (a valid result is
    already durable), ``"simulate"`` (a cold run would execute it), or
    ``"duplicate"`` (an earlier spec in the sequence shares its cache key).
    This is the ``repro run --dry-run`` backend; with caching disabled every
    non-duplicate spec reports ``"simulate"``.
    """
    use_cache = get_execution_options().cache if cache is None else cache
    result_store = _open_result_store(use_cache, store)
    statuses = []
    seen = set()
    for spec in specs:
        key = spec.cache_key()
        if key in seen:
            statuses.append("duplicate")
            continue
        seen.add(key)
        cached = result_store is not None and result_store.get(key) is not None
        statuses.append("cached" if cached else "simulate")
    return statuses


def run_plan(plan: Plan):
    """Run a plan's specs through :func:`run_specs` and render its rows."""
    specs, render = plan
    return render(dict(zip(specs, run_specs(specs))))
