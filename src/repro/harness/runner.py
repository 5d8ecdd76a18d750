"""Sweep execution: pull-based multi-worker executor + content store.

Every harness figure and the CLI ``sweep`` subcommand funnel through
:func:`run_sweep` / :func:`run_specs`: specs are deduplicated by cache key,
hits are served from the content-addressed
:class:`~repro.harness.store.ShardedDirStore`, and only the misses are
simulated.  Because every simulation is
deterministic (explicit seeds everywhere — see
:func:`repro.workloads.base.stable_name_seed`), any worker layout produces
bit-identical rows, and a warm-store re-run executes zero simulations.

Execution is a **pull-based work queue**, not an up-front partition: every
worker process sees the whole pending matrix and repeatedly (1) skips keys
whose result already landed in the store, (2) claims one key on the
:class:`~repro.harness.store.LeaseBoard`, (3) simulates it, (4) publishes
the result durably, then releases the lease.  Slow specs therefore never
serialize a whole chunk behind one worker, a crashed worker's claims
expire and are re-run by survivors, and N *independent processes or
hosts* pointed at one shared store (``--store /mnt/x --worker-id host1``)
drain a matrix cooperatively with exactly-once execution — duplicate completions are resolved by the store's
first-durable-write-wins rule with bit-identity verification.

The default store is ``dir:$REPRO_CACHE_DIR`` (default ``.repro-cache/``),
sharded one-file-per-result.  Keys cover the full resolved
:class:`~repro.sim.config.SystemConfig`, workload kwargs, mechanism, seed
and scale — but NOT the simulator's code, so run ``repro cache gc`` after
bumping :data:`repro.harness.specs.CACHE_FORMAT_VERSION` (or delete the
directory / pass ``--no-cache``) when simulation behaviour changes.

Caching defaults OFF for library calls (tests must never observe stale
physics) and ON in the CLI.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.harness.specs import RunSpec, SweepSpec
from repro.harness.store import (
    Heartbeat,
    LeaseBoard,
    ShardedDirStore,
    open_store,
)
from repro.telemetry import get_telemetry, strip_volatile_stats
from repro.workloads.base import RunMetrics, run_workload

#: what a run produces: RunMetrics for workload specs, a plain dict for
#: measurement specs.
RunResult = Union[RunMetrics, Dict]


# ----------------------------------------------------------------------
# Execution options (how the CLI hands --workers/--store to figure code)
# ----------------------------------------------------------------------
@dataclass
class ExecutionOptions:
    """Active sweep-execution policy; figures read it via the module state."""

    workers: int = 1
    cache: bool = False
    #: store url (``dir:PATH`` or a bare path); None = the deployment
    #: default, ``dir:$REPRO_CACHE_DIR`` (see :meth:`resolved_store_url`).
    store: Optional[str] = None
    #: stable identity for cooperative drains across processes/hosts;
    #: setting it routes even single-worker runs through the claim
    #: protocol so independent invocations never double-execute.
    worker_id: Optional[str] = None
    #: seconds before an unreleased claim is considered dead and re-run.
    lease_ttl: float = 60.0
    #: sampled-simulation fraction in (0, 1): sampleable workloads run
    #: shortened (see :mod:`repro.harness.sampling`) and return extrapolated
    #: metrics with error bounds.  Forces the cache off and the local
    #: single-worker path — approximations are never stored.
    sampling: Optional[float] = None
    #: telemetry output directory (``--telemetry DIR``): the CLI enables
    #: the :mod:`repro.telemetry` bus for the whole command and exports
    #: the event log + snapshot there.  None = telemetry off (default).
    telemetry: Optional[str] = None
    #: run the determinism sanitizer (``--sanitize``): simulators record
    #: per-cycle access sets and flag same-cycle ordering hazards.  Forces
    #: the cache off (the debug run must actually execute) and the local
    #: single-worker path (worker subprocesses would not share the
    #: process-local sanitizer session).
    sanitize: bool = False

    def resolved_store_url(self) -> str:
        """The store to open: ``store``, else ``dir:$REPRO_CACHE_DIR``
        (default ``.repro-cache``)."""
        return self.store or "dir:" + os.environ.get("REPRO_CACHE_DIR",
                                                     ".repro-cache")


_OPTIONS = ExecutionOptions()

#: ExecutionOptions fields settable through the helpers below.
_OPTION_FIELDS = ("workers", "cache", "store", "worker_id",
                  "lease_ttl", "sampling", "telemetry", "sanitize")


def set_execution_options(workers: Optional[int] = None,
                          cache: Optional[bool] = None,
                          store: Optional[str] = None,
                          worker_id: Optional[str] = None,
                          lease_ttl: Optional[float] = None,
                          sampling: Optional[float] = None,
                          telemetry: Optional[str] = None,
                          sanitize: Optional[bool] = None) -> None:
    if workers is not None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        _OPTIONS.workers = workers
    if cache is not None:
        _OPTIONS.cache = cache
    if store is not None:
        _OPTIONS.store = store or None
    if worker_id is not None:
        _OPTIONS.worker_id = worker_id or None
    if lease_ttl is not None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be > 0")
        _OPTIONS.lease_ttl = lease_ttl
    if sampling is not None:
        # 0 (or any falsy value) means "turn sampling back off".
        if not sampling:
            _OPTIONS.sampling = None
        else:
            if not 0.0 < sampling < 1.0:
                raise ValueError("sampling fraction must be in (0, 1)")
            _OPTIONS.sampling = float(sampling)
    if telemetry is not None:
        _OPTIONS.telemetry = telemetry or None
    if sanitize is not None:
        _OPTIONS.sanitize = sanitize


def get_execution_options() -> ExecutionOptions:
    return _OPTIONS


@contextlib.contextmanager
def execution_options(workers: Optional[int] = None,
                      cache: Optional[bool] = None,
                      store: Optional[str] = None,
                      worker_id: Optional[str] = None,
                      lease_ttl: Optional[float] = None,
                      sampling: Optional[float] = None,
                      telemetry: Optional[str] = None,
                      sanitize: Optional[bool] = None):
    """Temporarily override the active execution policy."""
    previous = replace(_OPTIONS)
    try:
        set_execution_options(workers=workers, cache=cache, store=store,
                              worker_id=worker_id, lease_ttl=lease_ttl,
                              sampling=sampling, telemetry=telemetry,
                              sanitize=sanitize)
        yield _OPTIONS
    finally:
        for name in _OPTION_FIELDS:
            setattr(_OPTIONS, name, getattr(previous, name))


# ----------------------------------------------------------------------
# Stats (lets the CLI and tests observe hit/miss/reclaim behaviour)
# ----------------------------------------------------------------------
@dataclass
class RunnerStats:
    """Counters accumulated across run_specs calls (reset explicitly)."""

    requested: int = 0
    executed: int = 0
    cache_hits: int = 0
    deduplicated: int = 0
    #: expired leases taken over from crashed/wedged workers.
    reclaimed: int = 0
    #: specs another cooperating worker completed while we were draining.
    completed_elsewhere: int = 0
    sweeps: List[str] = field(default_factory=list)

    def reset(self) -> None:
        self.requested = 0
        self.executed = 0
        self.cache_hits = 0
        self.deduplicated = 0
        self.reclaimed = 0
        self.completed_elsewhere = 0
        self.sweeps.clear()

    def summary(self) -> str:
        text = (
            f"{self.requested} runs: {self.executed} simulated, "
            f"{self.cache_hits} served from cache"
        )
        if self.completed_elsewhere:
            text += f", {self.completed_elsewhere} completed by other workers"
        if self.deduplicated:
            text += f", {self.deduplicated} deduplicated"
        if self.reclaimed:
            text += f", {self.reclaimed} leases reclaimed"
        return text


STATS = RunnerStats()


# ----------------------------------------------------------------------
# Single-spec execution (must be a top-level function: workers pickle
# only the RunSpec, which is plain data)
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
    """Run one spec and return its store record body (kind + result).

    When the active :class:`ExecutionOptions` carry a ``sampling`` fraction
    and the spec's workload is sampleable, the run is shortened and
    extrapolated (:mod:`repro.harness.sampling`); the record then carries a
    ``"sampling"`` report and must never be cached — :func:`run_specs`
    guarantees that by forcing the cache off while sampling is active.
    Non-sampleable specs run exactly, sampling or not.
    """
    from repro.harness.sampling import run_sampled, supports_sampling

    with get_telemetry().span("spec.execute", spec=spec.describe()):
        fraction = get_execution_options().sampling
        if fraction is not None and supports_sampling(spec):
            metrics, report = run_sampled(spec, fraction)
            return {"kind": "metrics", "result": metrics.as_dict(),
                    "spec": spec.describe(), "sampling": report}
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


def _storable(body: Dict) -> Dict:
    """A record body fit for the content-addressed store.

    The reserved ``telemetry.*`` stats keys are host wall-clock — not
    reproducible content — so they are stripped before publishing.
    Without them, racing completions of one key stay bit-identical and
    the store's first-durable-write-wins verification holds whether the
    writers ran with telemetry on or off.
    """
    if body.get("kind") != "metrics":
        return body
    stats = body.get("result", {}).get("stats")
    if not isinstance(stats, dict):
        return body
    stripped = strip_volatile_stats(stats)
    if stripped is stats:
        return body
    return {**body, "result": {**body["result"], "stats": stripped}}


# ----------------------------------------------------------------------
# The pull-based drain (claim -> execute -> publish -> release)
# ----------------------------------------------------------------------
#: how long an idle worker sleeps before re-scanning for completed
#: results or expired leases.
DRAIN_POLL_SECONDS = 0.02


def drain(store: ShardedDirStore, board: LeaseBoard,
          work: Dict[str, RunSpec], worker: str,
          poll: float = DRAIN_POLL_SECONDS) -> Dict[str, int]:
    """Pull specs from ``work`` until every key has a durable result.

    The loop makes no assumptions about who else is draining: any number
    of processes/hosts can run it against the same store concurrently.
    Returns this worker's counters (``executed`` / ``reclaimed`` /
    ``completed_elsewhere``).

    Observability: each spec's scan/claim/execute/put phases are telemetry
    spans, and the worker publishes a heartbeat file next to the
    LeaseBoard after every state change (``repro top`` tails those).
    """
    tel = get_telemetry()
    executed = reclaimed = elsewhere = 0
    events_done = 0
    remaining = dict(work)
    heartbeat = Heartbeat(store.root, worker)

    def beat(phase: str, current: Optional[str] = None) -> None:
        heartbeat.update(phase=phase, current=current,
                         total=len(work), remaining=len(remaining),
                         executed=executed, reclaimed=reclaimed,
                         completed_elsewhere=elsewhere,
                         kernel_events=events_done, done=not remaining)

    beat("scan")
    while remaining:
        progressed = False
        for key in list(remaining):
            with tel.span("spec.scan", key=key[:12]):
                done_elsewhere = store.get(key) is not None
            if done_elsewhere:
                del remaining[key]
                elsewhere += 1
                progressed = True
                beat("scan")
                continue
            with tel.span("spec.claim", key=key[:12]):
                lease = board.claim(key, worker)
            if lease is None:
                continue  # validly held by another worker; come back later
            if lease.reclaimed:
                reclaimed += 1
            # the result may have landed between the get and the claim
            if store.get(key) is None:
                spec = remaining[key]
                beat("execute", current=spec.describe())
                body = execute_spec(spec)
                if body.get("kind") == "metrics":
                    stats = body["result"].get("stats", {})
                    events_done += int(stats.get("kernel.events_processed", 0))
                with tel.span("spec.put", key=key[:12]):
                    store.put(key, _storable(body))
                executed += 1
                tel.gauge("sweep.remaining", len(remaining) - 1)
            else:
                elsewhere += 1
            board.release(key)
            del remaining[key]
            progressed = True
            beat("scan")
        if remaining and not progressed:
            beat("wait")
            time.sleep(poll)
    beat("done")
    return {"executed": executed, "reclaimed": reclaimed,
            "completed_elsewhere": elsewhere}


def _drain_worker(task: Tuple[str, str, float,
                              Tuple[Tuple[str, RunSpec], ...]]) -> Dict[str, int]:
    """Worker-process entry point: reopen the store by root and drain."""
    root, worker, lease_ttl, work = task
    store = ShardedDirStore(root)
    board = LeaseBoard(root, ttl=lease_ttl)
    try:
        return drain(store, board, dict(work), worker)
    finally:
        # Forked workers inherit the parent's enabled bus; persist each
        # worker's aggregate before the pool retires the process.
        get_telemetry().export()


def _pool_context():
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _drain_parallel(store: ShardedDirStore, work: Dict[str, RunSpec],
                    workers: int, worker_id: str,
                    lease_ttl: float) -> Dict[str, int]:
    """Fan N pull-workers out as processes; every worker sees all keys."""
    tasks = [
        (str(store.root), f"{worker_id}/{i}", lease_ttl,
         tuple(work.items()))
        for i in range(min(workers, len(work)))
    ]
    with _pool_context().Pool(len(tasks)) as pool:
        counters = pool.map(_drain_worker, tasks, chunksize=1)
    totals = {"executed": 0, "reclaimed": 0}
    for c in counters:
        for name in totals:
            totals[name] += c[name]
    # A key our own pool executed reads as "completed elsewhere" to the
    # pool's other members; only a shortfall against the whole work list
    # means an external cooperator (another host/invocation) ran it.
    totals["completed_elsewhere"] = max(0, len(work) - totals["executed"])
    return totals


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
              store: Optional[str] = None,
              worker_id: Optional[str] = None,
              lease_ttl: Optional[float] = None) -> List[RunResult]:
    """Execute specs (deduplicated) and return results in spec order.

    All knobs default to the active :class:`ExecutionOptions` (library
    default: one worker, no cache).
    """
    options = get_execution_options()
    workers = options.workers if workers is None else workers
    use_cache = options.cache if cache is None else cache
    worker_id = options.worker_id if worker_id is None else (worker_id or None)
    lease_ttl = options.lease_ttl if lease_ttl is None else lease_ttl
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if options.sampling is not None:
        # Sampled runs are approximations: never let them into the durable
        # store, and keep execution in this process (worker subprocesses
        # would re-import the module and lose the sampling option).
        use_cache = False
        workers = 1
        worker_id = None
    if options.sanitize:
        # Sanitized runs are debug runs: they must actually execute (a
        # cache hit would observe nothing) and the process-local sanitizer
        # session is invisible to worker subprocesses.
        use_cache = False
        workers = 1
        worker_id = None

    keys = [spec.cache_key() for spec in specs]
    result_store = _open_result_store(use_cache, store)

    # Deduplicate: identical specs simulate once per sweep.  Hits are
    # materialized eagerly; a record that no longer matches the current
    # RunMetrics schema (stale cache after a code change without a
    # CACHE_FORMAT_VERSION bump) falls back to re-simulation.
    results_by_key: Dict[str, RunResult] = {}
    pending: Dict[str, RunSpec] = {}
    seen = set()
    for spec, key in zip(specs, keys):
        if key in seen:
            STATS.deduplicated += 1
            continue
        seen.add(key)
        cached = result_store.get(key) if result_store is not None else None
        if cached is not None:
            try:
                results_by_key[key] = _record_to_result(cached)
            except (TypeError, KeyError, ValueError):
                # intact entry, unreadable schema (code changed without a
                # CACHE_FORMAT_VERSION bump): drop it so the recomputed
                # result can be published without tripping the
                # bit-identity check against the stale winner.
                result_store.discard(key)
                cached = None
            else:
                STATS.cache_hits += 1
        if cached is None:
            pending[key] = spec

    coordinated = pending and (workers > 1 or worker_id is not None)
    if not coordinated:
        # Fast path: one private worker, no coordination overhead.
        for key, spec in pending.items():
            body = execute_spec(spec)
            if result_store is not None:
                result_store.put(key, _storable(body))
            # Return the locally produced body (it keeps the telemetry.*
            # keys the stored record legitimately drops); a racing winner
            # is bit-identical in everything else by the store's contract.
            results_by_key[key] = _record_to_result(body)
            STATS.executed += 1
    else:
        scratch_dir = None
        try:
            if result_store is not None:
                drain_store = result_store
            else:
                # Cache off: workers meet in an ephemeral store.
                scratch_dir = tempfile.mkdtemp(prefix="repro-drain-")
                drain_store = ShardedDirStore(scratch_dir)
            base_id = worker_id or f"pid{os.getpid()}"
            if workers > 1:
                counters = _drain_parallel(drain_store, pending, workers,
                                           base_id, lease_ttl)
            else:
                board = LeaseBoard(drain_store.root, ttl=lease_ttl)
                counters = drain(drain_store, board, pending, base_id)
            STATS.executed += counters["executed"]
            STATS.reclaimed += counters["reclaimed"]
            STATS.completed_elsewhere += counters["completed_elsewhere"]
            for key, spec in pending.items():
                record = drain_store.get(key)
                if record is None:  # pragma: no cover - drain guarantees it
                    record = drain_store.put(key, _storable(execute_spec(spec)))
                    STATS.executed += 1
                try:
                    results_by_key[key] = _record_to_result(record)
                except (TypeError, KeyError, ValueError):
                    # another (older) worker wrote a schema we can't read;
                    # recompute locally rather than fail the sweep.
                    body = execute_spec(spec)
                    results_by_key[key] = _record_to_result(body)
                    STATS.executed += 1
        finally:
            if scratch_dir is not None:
                shutil.rmtree(scratch_dir, ignore_errors=True)

    STATS.requested += len(specs)
    return [results_by_key[key] for key in keys]


def probe_specs(specs: Sequence[RunSpec], cache: Optional[bool] = None,
                store: Optional[str] = None) -> List[str]:
    """Classify each spec against the store WITHOUT executing anything.

    Returns one status per spec, in order: ``"cached"`` (a valid result is
    already durable), ``"simulate"`` (a cold run would execute it), or
    ``"duplicate"`` (an earlier spec in the sequence shares its cache key).
    This is the ``sweep --dry-run`` backend; with caching disabled every
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
        cached = result_store.get(key) if result_store is not None else None
        if cached is not None:
            try:
                _record_to_result(cached)
            except (TypeError, KeyError, ValueError):
                cached = None  # stale schema -> a real run would re-simulate
        statuses.append("cached" if cached is not None else "simulate")
    return statuses


def run_sweep(sweep: SweepSpec, workers: Optional[int] = None,
              cache: Optional[bool] = None,
              store: Optional[str] = None,
              worker_id: Optional[str] = None,
              lease_ttl: Optional[float] = None) -> List[RunResult]:
    """Execute a named sweep; results align with ``sweep.runs`` order."""
    STATS.sweeps.append(sweep.name)
    return run_specs(sweep.runs, workers=workers, cache=cache, store=store,
                     worker_id=worker_id, lease_ttl=lease_ttl)
