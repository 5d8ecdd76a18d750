"""Command-line interface: list and run the paper's experiments.

::

    python -m repro list                     # what can be reproduced
    python -m repro run fig11 --arg structure=stack
    python -m repro run table1
    python -m repro run fig22 --arg combos=ts.air
    python -m repro run fig10 --arg primitive=lock --plot
    python -m repro run fig12 --workers 4    # parallel sweep + result cache
    python -m repro run fig12 --dry-run      # the runs, cached or not
    python -m repro run ext_rwlock --plot    # extension experiments
    python -m repro run sweep --arg workloads=bfs.wk,cc.sl \
        --arg mechanisms=syncron,hier \
        --vary link_latency=1,4,16           # ad-hoc scenario matrices
    python -m repro run topo_sensitivity     # routed-fabric sensitivity
    python -m repro run interference --arg groups=lock+bfs.wk \
        --arg topologies=all_to_all,ring     # co-run interference matrix
    python -m repro run isolation --arg descs=lock
    python -m repro quickstart               # the README example

Each ``run`` target is a :data:`repro.harness.registry.EXPERIMENTS` record;
``--arg KEY=VALUE`` items must name its plan's parameters (a scalar for a
sequence parameter becomes a 1-tuple; comma-separated items are stripped),
and its rows print as a table; ``--plot`` adds a terminal chart in the
figure's shape.  ``--faults``, ``--link-profile`` and ``--vary`` are
forwarded to the plans that take them (``degradation``, ``sweep``); any
other plan rejects them.  ``--dry-run`` lists the plan's runs and whether
the store already holds each, simulating nothing.  ``--workers N``
simulates the figure's cache misses in up to N worker processes; results
land in a content-addressed store under ``$REPRO_CACHE_DIR`` (default
``.repro-cache/``) so re-runs only simulate misses (``--no-cache``
disables that, ``--store PATH`` puts the store elsewhere; concurrent
invocations may share one store).  ``cache`` inspects and maintains the
store (stats/verify/gc); ``report`` renders the telemetry a
``--telemetry DIR`` run left behind.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys
from typing import Dict, List, Tuple

from repro.harness.registry import EXPERIMENTS, find
from repro.harness.reporting import format_table
from repro.harness.runner import STATS, default_store_url, probe_specs, run_plan
from repro.harness.store import StoreError, open_store


def _parse_value(text: str):
    """Best-effort literal parsing for --arg values."""
    if "," in text:
        parts = (part.strip() for part in text.split(","))
        return tuple(_parse_value(part) for part in parts if part)
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def _key_value(flag: str, item: str) -> Tuple[str, object]:
    """``KEY=VALUE`` split and parsed; ValueError (exit 2) without ``=``."""
    if "=" not in item:
        raise ValueError(f"{flag} expects key=value, got {item!r}")
    key, value = item.split("=", 1)
    return key, _parse_value(value)


def _takes_sequence(param: inspect.Parameter) -> bool:
    """Whether a plan parameter is a sequence (a scalar --arg is wrapped)."""
    return (isinstance(param.default, tuple)
            or "Sequence" in str(param.annotation))


def _takes_mapping(param: inspect.Parameter) -> bool:
    """Whether a plan parameter is a mapping, which no --arg text gives."""
    return any(kind in str(param.annotation) for kind in ("Dict", "Mapping"))


def _plan_kwargs(name: str, plan, items: List[str], **flags) -> Dict:
    """Plan kwargs from ``--arg KEY=VALUE`` items plus the given ``flags``
    (``--faults`` / ``--link-profile`` / ``--vary``); ValueError (exit 2)
    for a malformed item, a key the plan does not take, or a missing
    required parameter."""
    params = inspect.signature(plan).parameters
    kwargs = {}
    for item in items:
        key, parsed = _key_value("--arg", item)
        if key in params and _takes_mapping(params[key]):
            raise ValueError(f"{name}'s {key!r} is a mapping; --arg cannot "
                             f"set it")
        if (key in params and _takes_sequence(params[key])
                and not isinstance(parsed, tuple)):
            parsed = (parsed,)
        kwargs[key] = parsed
    kwargs.update((key, value) for key, value in flags.items()
                  if value is not None)
    for key in kwargs:
        if key not in params:
            raise ValueError(f"{name} takes no argument {key!r}; accepted: "
                             f"{', '.join(params)}")
    for param in params.values():
        if param.default is param.empty and param.name not in kwargs:
            raise ValueError(f"{name} needs --arg {param.name}=...")
    return kwargs


def _print_result(name: str, result) -> None:
    if isinstance(result, dict):  # fig2-style {part: rows}
        for part, rows in result.items():
            print(format_table(rows, title=f"{name} [{part}]"))
            print()
    else:
        print(format_table(result, title=name))


@contextlib.contextmanager
def _telemetry_scope(directory):
    """Enable the telemetry bus for a command when --telemetry DIR is set."""
    if not directory:
        yield
        return
    from repro.telemetry import telemetry_session

    with telemetry_session(directory):
        yield
    print(f"[telemetry] event log + snapshot written to {directory}/ "
          f"(render with `python -m repro report {directory}`)",
          file=sys.stderr)


@contextlib.contextmanager
def _sanitizer_scope(enabled: bool):
    """Activate the determinism sanitizer for a command when --sanitize.

    Yields the active session (or None): the caller prints the hazard
    report and turns hazards into a non-zero exit after the scope closes.
    """
    if not enabled:
        yield None
        return
    from repro.analysis.sanitizer import sanitize_session

    with sanitize_session() as session:
        yield session


def cmd_list(_args) -> int:
    width = max(len("experiment"), *(len(e.name) for e in EXPERIMENTS))
    print(f"{'experiment':{width}s} description")
    print("-" * 60)
    for experiment in EXPERIMENTS:
        print(f"{experiment.name:{width}s} {experiment.description}")
    return 0


def cmd_run(args) -> int:
    name = args.experiment
    experiment = find(name)
    if experiment is None:
        print(f"unknown experiment {name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    try:
        vary = (dict(_key_value("--vary", item) for item in args.vary)
                if args.vary else None)
        kwargs = _plan_kwargs(name, experiment.plan, args.arg or [],
                              faults=args.faults,
                              link_profile=args.link_profile, vary=vary)
        # planning validates every spec's config (RunSpec.make), so a bad
        # override exits 2 here instead of failing mid-simulation.
        plan = experiment.plan(**kwargs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.dry_run:
        specs = plan[0]
        statuses = probe_specs(specs, cache=not args.no_cache,
                               store=args.store)
        print(format_table([{"run": spec.describe(), "status": status}
                            for spec, status in zip(specs, statuses)],
                           title=f"{name} (dry run)"))
        print(f"[dry-run] {len(specs)} runs: "
              f"{statuses.count('cached')} cached, "
              f"{statuses.count('simulate')} to simulate, "
              f"{statuses.count('duplicate')} deduplicated", file=sys.stderr)
        return 0
    workers, cache = args.workers, not args.no_cache
    if args.sanitize:
        # A sanitized run is a debug run: it must simulate (a cache hit
        # would observe nothing) in this process (worker subprocesses do
        # not share the process-local sanitizer session).
        workers, cache = 1, False
    STATS.reset()
    with _telemetry_scope(args.telemetry), \
            _sanitizer_scope(args.sanitize) as sanitizer:
        result = run_plan(plan, workers, cache, args.store)
    _print_result(name, result)
    print(f"[runner] {STATS.summary()}", file=sys.stderr)
    if args.plot:
        chart = experiment.chart(result)
        if chart is None:
            print(f"(no plot mapping for {name})", file=sys.stderr)
        else:
            print()
            print(chart)
    if sanitizer is not None:
        print(f"[sanitize] {sanitizer.report()}", file=sys.stderr)
        if sanitizer.hazards:
            return 1
    return 0


# ----------------------------------------------------------------------
# cache: inspect and maintain the content-addressed result store
# ----------------------------------------------------------------------
def cmd_cache(args) -> int:
    import json as _json

    try:
        store = open_store(args.store or default_store_url())
        if args.action == "stats":
            report = store.stats()
        elif args.action == "verify":
            report = store.verify()
        else:
            report = store.gc()
    except StoreError as exc:
        print(f"cache: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(report, indent=2, sort_keys=True))
    else:
        for key, value in report.items():
            print(f"{key:18s} {value}")
    if args.action == "verify":
        total = report.get("quarantine_total", len(report["corrupt"]))
        if report["corrupt"]:
            print(f"cache: {len(report['corrupt'])} corrupt entries "
                  f"quarantined this pass ({total} total in quarantine/)",
                  file=sys.stderr)
            return 1
        print(f"cache: verify ok ({report['ok']} entries, {total} in "
              f"quarantine/ from earlier damage)", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# report: render a finished run's telemetry
# ----------------------------------------------------------------------
def cmd_report(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.telemetry import merge_snapshots

    directory = Path(args.telemetry_dir)
    snapshots = []
    for path in sorted(directory.glob("snapshot-*.json")):
        try:
            snapshots.append(_json.loads(path.read_text(encoding="utf-8")))
        except (OSError, _json.JSONDecodeError):
            print(f"report: skipping unreadable {path}", file=sys.stderr)
    event_counts: Dict[str, int] = {}
    event_lines = 0
    for path in sorted(directory.glob("events-*.jsonl")):
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError:
            continue
        for line in lines:
            try:
                record = _json.loads(line)
            except _json.JSONDecodeError:
                continue
            event_lines += 1
            name = str(record.get("event", "?"))
            event_counts[name] = event_counts.get(name, 0) + 1
    if not snapshots and not event_counts:
        print(f"report: no telemetry found under {directory}/ "
              "(expected snapshot-*.json / events-*.jsonl)", file=sys.stderr)
        return 2

    merged = merge_snapshots(snapshots)
    title = f"telemetry @ {directory}"
    workers = merged.get("workers", [])
    print(f"{title}: {len(snapshots)} snapshot(s), {event_lines} logged "
          f"event(s), workers: {', '.join(workers) or '-'}")
    if merged.get("spans"):
        rows = [
            {"span": name, "count": cell["count"],
             "total_s": cell["total_s"],
             "mean_ms": 1e3 * cell["total_s"] / cell["count"],
             "max_ms": 1e3 * cell["max_s"], "errors": cell["errors"]}
            for name, cell in sorted(merged["spans"].items())
        ]
        print()
        print(format_table(rows, title="spans"))
    if merged.get("counters"):
        rows = [{"counter": k, "value": v}
                for k, v in sorted(merged["counters"].items())]
        print()
        print(format_table(rows, title="counters"))
    if event_counts:
        rows = [{"event": k, "count": v}
                for k, v in sorted(event_counts.items())]
        print()
        print(format_table(rows, title="event log"))
    return 0


# ----------------------------------------------------------------------
# lint: the simulator-invariant static-analysis gate
# ----------------------------------------------------------------------
def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.analysis.engine import (
        LintError,
        default_baseline_path,
        lint_package,
        load_baseline,
        render_json,
        render_table,
        write_baseline,
    )

    baseline_path = (Path(args.baseline) if args.baseline
                     else default_baseline_path())
    try:
        report = lint_package(rule_ids=args.rule, baseline_path=baseline_path)
    except LintError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        keep = report.findings + report.baselined
        write_baseline(baseline_path, keep, load_baseline(baseline_path))
        print(f"baseline updated: {len(keep)} entry(ies) -> {baseline_path}")
        return 0
    print(render_json(report) if args.format == "json"
          else render_table(report))
    if args.output:
        Path(args.output).write_text(render_json(report) + "\n")
    return 0 if report.clean else 1


def cmd_quickstart(_args) -> int:
    from repro import NDPSystem, api, ndp_2_5d
    from repro.sim import Compute

    system = NDPSystem(ndp_2_5d(), mechanism="syncron")
    lock = system.create_syncvar(name="cli_lock")
    shared = {"counter": 0}

    def worker():
        for _ in range(10):
            yield api.lock_acquire(lock)
            # read, work, write back: an overlapping section loses an update
            value = shared["counter"]
            yield Compute(20)
            shared["counter"] = value + 1
            yield api.lock_release(lock)

    cycles = system.run_programs({c.core_id: worker() for c in system.cores})
    lost = 10 * len(system.cores) - shared["counter"]
    print(f"{len(system.cores)} cores, {shared['counter']} lock-protected "
          f"increments, {cycles} cycles, {lost} lost updates")
    return 1 if lost else 0


_STORE_HELP = ("result store: dir:PATH or a bare PATH (default "
               "$REPRO_CACHE_DIR or .repro-cache); safe to share between "
               "concurrent processes")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SynCron (HPCA 2021) reproduction: run the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible tables/figures")

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", help="e.g. fig11, table1, ext_rwlock")
    run.add_argument("--arg", action="append", metavar="KEY=VALUE",
                     help="experiment keyword argument (repeatable)")
    run.add_argument("--plot", action="store_true",
                     help="also draw a terminal chart in the figure's shape")
    run.add_argument("--faults", default=None, metavar="SPEC",
                     help="fault plan for fault-aware experiments "
                          "(degradation, sweep): comma-separated permanent "
                          "link failures like '0>1@100', '2-3@50', or "
                          "scalars 'rate=0.1', 'seed=7', 'window=8000'")
    run.add_argument("--link-profile", default=None, metavar="SPEC",
                     help="per-channel overrides like "
                          "'0>1=25.6:80,2-3=:200' (GB/s and/or ns)")
    run.add_argument("--vary", action="append", metavar="FIELD=V1,V2,...",
                     help="sweep a SystemConfig field in the sweep plan "
                          "(repeatable; cross product), e.g. "
                          "link_latency=40,100,500")
    run.add_argument("--dry-run", action="store_true",
                     help="print the plan's runs and cache hit/miss counts "
                          "without simulating anything")
    run.add_argument("--sanitize", action="store_true",
                     help="runtime determinism sanitizer: record per-cycle "
                          "access sets and flag same-cycle ordering hazards "
                          "(debug mode: forces --no-cache and one worker; "
                          "non-zero exit on hazards)")
    run.add_argument("--workers", type=int, default=1, metavar="N",
                     help="worker processes simulating the cache misses "
                          "(default 1)")
    run.add_argument("--no-cache", action="store_true",
                     help="ignore and don't write the on-disk result store")
    run.add_argument("--store", default=None, metavar="PATH",
                     help=_STORE_HELP)
    run.add_argument("--telemetry", default=None, metavar="DIR",
                     help="write a JSONL event log + aggregate snapshot "
                          "of this command's execution to DIR (render "
                          "afterwards with `repro report DIR`)")

    cache = sub.add_parser(
        "cache",
        help="inspect/maintain the content-addressed result store",
    )
    cache.add_argument("action",
                       choices=("stats", "verify", "gc"),
                       help="stats: entries/bytes/shards; verify: re-hash "
                            "entries and quarantine corruption; gc: drop "
                            "entries written by other source code (another "
                            "epoch) and abandoned temp files")
    cache.add_argument("--store", default=None, metavar="PATH",
                       help=_STORE_HELP)
    cache.add_argument("--json", action="store_true",
                       help="machine-readable output")

    report = sub.add_parser(
        "report",
        help="render the telemetry a --telemetry run left behind",
    )
    report.add_argument("telemetry_dir", metavar="DIR",
                        help="directory passed to --telemetry (holds "
                             "snapshot-*.json and events-*.jsonl)")

    lint = sub.add_parser(
        "lint",
        help="static analysis: check the package against the simulator "
             "invariants (RP001..RP006)",
    )
    lint.add_argument("--rule", action="append", metavar="RPNNN",
                      help="check only this rule (repeatable; default all)")
    lint.add_argument("--format", choices=("table", "json"), default="table",
                      help="report format (default table)")
    lint.add_argument("--update-baseline", action="store_true",
                      help="rewrite baseline.json to grandfather every "
                           "current finding (keeps existing justifications; "
                           "new entries get a TODO)")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="baseline file (default: the committed "
                           "src/repro/analysis/baseline.json)")
    lint.add_argument("--output", default=None, metavar="PATH",
                      help="additionally write the JSON report to PATH "
                           "(CI artifact)")

    sub.add_parser("quickstart", help="run the README quickstart")
    return parser


def main(argv: List[str] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"list": cmd_list, "run": cmd_run, "cache": cmd_cache,
               "report": cmd_report, "lint": cmd_lint,
               "quickstart": cmd_quickstart}
    return handler[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
