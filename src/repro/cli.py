"""Command-line interface: list and run the paper's experiments.

::

    python -m repro list                     # what can be reproduced
    python -m repro run fig11 --arg structure=stack
    python -m repro run table1
    python -m repro run fig22 --arg combos=ts.air
    python -m repro run fig10 --arg primitive=lock --plot
    python -m repro run fig12 --workers 4    # parallel sweep + result cache
    python -m repro run ext_rwlock --plot    # extension experiments
    python -m repro sweep --mechanisms syncron,hier --apps bfs.wk,cc.sl \
        --vary link_latency=1,4,16           # ad-hoc scenario matrices
    python -m repro run topo_sensitivity     # routed-fabric sensitivity
    python -m repro sweep --structures stack --mechanisms syncron \
        --vary topology=all_to_all,ring,mesh2d,torus2d --dry-run
    python -m repro corun --tenants lock,bfs.wk \
        --topologies all_to_all,ring       # co-run interference matrix
    python -m repro corun --tenants lock --check-isolation
    python -m repro quickstart               # the README example

Each ``run`` target is a :data:`repro.harness.registry.EXPERIMENTS` record;
``--arg KEY=VALUE`` items must name its plan's parameters (a scalar for a
sequence parameter becomes a 1-tuple), and its rows print as a table;
``--plot`` adds a terminal chart in the figure's shape.  ``--workers N``
simulates the figure's cache misses in up to N worker processes; results
land in a content-addressed store under ``$REPRO_CACHE_DIR`` (default
``.repro-cache/``) so re-runs only simulate misses (``--no-cache``
disables that, ``--store PATH`` puts the store elsewhere; concurrent
invocations may share one store).  ``sweep`` composes scenario matrices
no figure hard-codes: any workload set x mechanisms x swept SystemConfig
fields; ``cache`` inspects and maintains the store (stats/verify/gc);
``report`` renders the telemetry a ``--telemetry DIR`` run left behind.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys
from typing import Dict, List, Optional, Tuple

from repro.harness.experiments import MECHANISMS
from repro.harness.registry import EXPERIMENTS, find
from repro.harness.reporting import format_table
from repro.harness.runner import (
    STATS,
    ExecutionOptions,
    execution_options,
    probe_specs,
    run_plan,
    run_specs,
)
from repro.harness.specs import expand_matrix, validate_names
from repro.harness.store import StoreError, open_store


def _parse_value(text: str):
    """Best-effort literal parsing for --arg values."""
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(",") if part)
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    return text


def _takes_sequence(param: inspect.Parameter) -> bool:
    """Whether a plan parameter is a sequence (a scalar --arg is wrapped)."""
    return (isinstance(param.default, tuple)
            or "Sequence" in str(param.annotation))


def _plan_kwargs(name: str, plan, items: List[str], **flags) -> Dict:
    """Plan kwargs from ``--arg KEY=VALUE`` items plus the given ``flags``
    (``--faults`` / ``--link-profile``); ValueError (exit 2) for a malformed
    item, a key the plan does not take, or a missing required parameter."""
    params = inspect.signature(plan).parameters
    kwargs = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"--arg expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        parsed = _parse_value(value)
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


def _runner_options(args) -> Dict:
    """The execution_options kwargs every runner-flagged subcommand shares."""
    return {
        "workers": args.workers,
        "cache": not args.no_cache,
        "store": args.store,
        "sanitize": getattr(args, "sanitize", False),
    }


@contextlib.contextmanager
def _telemetry_scope(args):
    """Enable the telemetry bus for a command when --telemetry DIR is set."""
    directory = getattr(args, "telemetry", None)
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
def _sanitizer_scope(args):
    """Activate the determinism sanitizer for a command when --sanitize.

    Yields the active session (or None): the caller prints the hazard
    report and turns hazards into a non-zero exit after the scope closes.
    """
    if not getattr(args, "sanitize", False):
        yield None
        return
    from repro.analysis.sanitizer import sanitize_session

    with sanitize_session() as session:
        yield session


def cmd_list(_args) -> int:
    print(f"{'experiment':10s} description")
    print("-" * 60)
    for experiment in EXPERIMENTS:
        print(f"{experiment.name:10s} {experiment.description}")
    return 0


def cmd_run(args) -> int:
    name = args.experiment
    experiment = find(name)
    if experiment is None:
        print(f"unknown experiment {name!r}; try `python -m repro list`",
              file=sys.stderr)
        return 2
    try:
        kwargs = _plan_kwargs(name, experiment.plan, args.arg or [],
                              faults=args.faults,
                              link_profile=args.link_profile)
        # planning validates every spec's config (RunSpec.make), so a bad
        # override exits 2 here instead of failing mid-simulation.
        plan = experiment.plan(**kwargs)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    STATS.reset()
    with _telemetry_scope(args), _sanitizer_scope(args) as sanitizer, \
            execution_options(**_runner_options(args)):
        result = run_plan(plan)
    _print_result(name, result)
    print(f"[runner] {STATS.summary()}", file=sys.stderr)
    if getattr(args, "plot", False):
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
# sweep: ad-hoc scenario matrices (beyond any hard-coded figure)
# ----------------------------------------------------------------------
_SWEEP_LABEL_KEYS = {"app": "combo", "structure": "structure",
                     "primitive": "primitive"}


def _csv(text: Optional[str]) -> Tuple[str, ...]:
    if not text:
        return ()
    return tuple(part for part in (p.strip() for p in text.split(",")) if part)


def cmd_sweep(args) -> int:
    apps = _csv(args.apps)
    structures = _csv(args.structures)
    primitives = _csv(args.primitives)
    workloads: List[Tuple[str, Dict]] = []
    workloads.extend(("app", {"combo": combo}) for combo in apps)
    workloads.extend(("structure", {"structure": s}) for s in structures)
    workloads.extend(
        ("primitive", {"primitive": p, "interval": args.interval,
                       "rounds": args.rounds})
        for p in primitives
    )
    if not workloads:
        print("sweep needs at least one workload: --apps, --structures, "
              "or --primitives", file=sys.stderr)
        return 2
    mechanisms = _csv(args.mechanisms) or MECHANISMS
    # fail fast on typos — workers must never see bad names mid-sweep.
    error = validate_names(apps=apps, structures=structures,
                           primitives=primitives, mechanisms=mechanisms)
    if error:
        print(f"sweep: {error}", file=sys.stderr)
        return 2
    vary: Dict[str, tuple] = {}
    for item in args.vary or []:
        if "=" not in item:
            print(f"--vary expects field=v1,v2,..., got {item!r}", file=sys.stderr)
            return 2
        key, values = item.split("=", 1)
        parsed = _parse_value(values)
        vary[key] = parsed if isinstance(parsed, tuple) else (parsed,)

    base_overrides: Dict[str, object] = {}
    try:
        if args.faults:
            from repro.sim.topo.faults import parse_fault_spec
            base_overrides.update(parse_fault_spec(args.faults))
        if args.link_profile:
            from repro.sim.topo.faults import parse_link_profile
            base_overrides["link_profile"] = parse_link_profile(
                args.link_profile)
        labeled = expand_matrix(workloads, mechanisms, vary=vary,
                                preset=args.preset, seed=args.seed,
                                base_overrides=base_overrides)
    except ValueError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2

    if args.dry_run:
        with execution_options(cache=not args.no_cache, store=args.store):
            statuses = probe_specs([spec for _label, spec in labeled])
        rows = [
            {"run": spec.describe(), "status": status}
            for (_label, spec), status in zip(labeled, statuses)
        ]
        print(format_table(rows, title="sweep (dry run)"))
        print(
            f"[dry-run] {len(labeled)} runs: "
            f"{statuses.count('cached')} cached, "
            f"{statuses.count('simulate')} to simulate, "
            f"{statuses.count('duplicate')} deduplicated",
            file=sys.stderr,
        )
        return 0

    STATS.reset()
    with _telemetry_scope(args), execution_options(**_runner_options(args)):
        results = run_specs([spec for _label, spec in labeled])

    # One table row per (workload, vary combo); mechanisms are columns.
    # expand_matrix emits mechanisms innermost, so chunk by their count.
    rows = []
    for start in range(0, len(labeled), len(mechanisms)):
        chunk = labeled[start:start + len(mechanisms)]
        label = chunk[0][0]
        row: Dict[str, object] = {
            "workload": label["args"][_SWEEP_LABEL_KEYS[label["workload"]]],
        }
        # vary columns only: --faults/--link-profile base overrides are
        # shared by every row and would just repeat long tuples.
        row.update({k: v for k, v in label["overrides"].items() if k in vary})
        metrics = {
            lbl["mechanism"]: m
            for (lbl, _spec), m in zip(chunk, results[start:start + len(mechanisms)])
        }
        base = metrics[mechanisms[0]].cycles
        for mech, m in metrics.items():
            row[f"{mech}_cycles"] = m.cycles
            row[f"{mech}_speedup"] = base / m.cycles if m.cycles else float("inf")
        rows.append(row)
    print(format_table(rows, title="sweep"))
    print(f"[runner] {STATS.summary()}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# corun: multi-tenant co-run scenarios (interference / isolation)
# ----------------------------------------------------------------------
def cmd_corun(args) -> int:
    from repro.harness.experiments import (
        CORUN_MECHANISMS, interference, isolation_check,
    )

    tenants = _csv(args.tenants)
    if not tenants:
        print("corun needs --tenants, e.g. --tenants lock,bfs.wk",
              file=sys.stderr)
        return 2
    mechanisms = _csv(args.mechanisms) or CORUN_MECHANISMS
    error = validate_names(mechanisms=mechanisms)
    if error:
        print(f"corun: {error}", file=sys.stderr)
        return 2
    topologies = _csv(args.topologies) or ("all_to_all",)
    unit_split = core_split = None
    try:
        if args.units:
            unit_split = tuple(int(u) for u in _csv(args.units))
        if args.cores:
            core_split = tuple(int(c) for c in _csv(args.cores))
    except ValueError:
        print("--units/--cores expect counts like 2,2", file=sys.stderr)
        return 2

    STATS.reset()
    status = 0
    with _telemetry_scope(args), execution_options(**_runner_options(args)):
        try:
            if args.check_isolation:
                if unit_split or core_split:
                    print("corun: --check-isolation is whole-machine by "
                          "definition; drop --units/--cores", file=sys.stderr)
                    return 2
                rows = run_plan(isolation_check(
                    descs=tenants, mechanisms=mechanisms,
                    topologies=topologies, interval=args.interval,
                    rounds=args.rounds, preset=args.preset,
                ))
                print(format_table(rows, title="corun isolation check"))
                broken = [r for r in rows if not r["identical"]]
                if broken:
                    print(
                        f"corun: isolation violated for "
                        f"{[(r['workload'], r['mechanism']) for r in broken]}",
                        file=sys.stderr,
                    )
                    status = 1
            else:
                if len(tenants) < 2:
                    print("corun interference needs at least two --tenants "
                          "(or pass --check-isolation)", file=sys.stderr)
                    return 2
                rows = run_plan(interference(
                    groups=[tuple(tenants)], mechanisms=mechanisms,
                    topologies=topologies, interval=args.interval,
                    rounds=args.rounds, unit_split=unit_split,
                    core_split=core_split, preset=args.preset,
                ))
                print(format_table(rows, title="corun interference"))
        except ValueError as exc:
            print(f"corun: {exc}", file=sys.stderr)
            return 2
    print(f"[runner] {STATS.summary()}", file=sys.stderr)
    return status


# ----------------------------------------------------------------------
# cache: inspect and maintain the content-addressed result store
# ----------------------------------------------------------------------
def _open_cli_store(args):
    """The store a ``--store`` flag names (default ``dir:$REPRO_CACHE_DIR``)."""
    return open_store(ExecutionOptions(store=args.store).resolved_store_url())


def cmd_cache(args) -> int:
    import json as _json

    try:
        store = _open_cli_store(args)
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
    if merged.get("gauges"):
        rows = [{"gauge": k, "value": v}
                for k, v in sorted(merged["gauges"].items())]
        print()
        print(format_table(rows, title="gauges"))
    if merged.get("histograms"):
        rows = [
            {"histogram": name, "count": cell["count"], "sum": cell["sum"],
             "mean_ms": (1e3 * cell["sum"] / cell["count"]
                         if cell["count"] else 0.0)}
            for name, cell in sorted(merged["histograms"].items())
        ]
        print()
        print(format_table(rows, title="histograms"))
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
            shared["counter"] += 1
            yield Compute(20)
            yield api.lock_release(lock)

    cycles = system.run_programs({c.core_id: worker() for c in system.cores})
    print(f"{len(system.cores)} cores, {shared['counter']} lock-protected "
          f"increments, {cycles} cycles, 0 lost updates")
    return 0


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

    def add_runner_flags(cmd):
        cmd.add_argument("--workers", type=int, default=1, metavar="N",
                         help="worker processes simulating the cache misses "
                              "(default 1)")
        cmd.add_argument("--no-cache", action="store_true",
                         help="ignore and don't write the on-disk result store")
        cmd.add_argument("--store", default=None, metavar="PATH",
                         help=_STORE_HELP)
        cmd.add_argument("--telemetry", default=None, metavar="DIR",
                         help="write a JSONL event log + aggregate snapshot "
                              "of this command's execution to DIR (render "
                              "afterwards with `repro report DIR`)")

    run = sub.add_parser("run", help="run one experiment and print its table")
    run.add_argument("experiment", help="e.g. fig11, table1, ext_rwlock")
    run.add_argument("--arg", action="append", metavar="KEY=VALUE",
                     help="experiment keyword argument (repeatable)")
    run.add_argument("--plot", action="store_true",
                     help="also draw a terminal chart in the figure's shape")
    run.add_argument("--faults", default=None, metavar="SPEC",
                     help="fault plan for fault-aware experiments "
                          "(degradation): comma-separated permanent link "
                          "failures like '0>1@100', '2-3@50', or scalars "
                          "'rate=0.1', 'seed=7', 'window=8000'")
    run.add_argument("--link-profile", default=None, metavar="SPEC",
                     help="per-channel overrides like "
                          "'0>1=25.6:80,2-3=:200' (GB/s and/or ns)")
    run.add_argument("--sanitize", action="store_true",
                     help="runtime determinism sanitizer: record per-cycle "
                          "access sets and flag same-cycle ordering hazards "
                          "(debug mode: forces --no-cache and one worker; "
                          "non-zero exit on hazards)")
    add_runner_flags(run)

    sweep = sub.add_parser(
        "sweep",
        help="run an ad-hoc scenario matrix (workloads x mechanisms x config)",
    )
    sweep.add_argument("--apps", metavar="A,B,...",
                       help="application-input combos, e.g. bfs.wk,cc.sl,ts.air")
    sweep.add_argument("--structures", metavar="S,T,...",
                       help="data structures, e.g. stack,queue,bst_fg")
    sweep.add_argument("--primitives", metavar="P,Q,...",
                       help="sync primitives, e.g. lock,barrier")
    sweep.add_argument("--interval", type=int, default=200,
                       help="instruction interval for --primitives (default 200)")
    sweep.add_argument("--rounds", type=int, default=25,
                       help="rounds for --primitives (default 25)")
    sweep.add_argument("--mechanisms", metavar="M,N,...",
                       help="mechanisms to compare (default central,hier,"
                            "syncron,ideal); first is the speedup baseline")
    sweep.add_argument("--vary", action="append", metavar="FIELD=V1,V2,...",
                       help="sweep a SystemConfig field (repeatable; cross "
                            "product), e.g. link_latency=40,100,500")
    sweep.add_argument("--preset", default="ndp_2_5d",
                       help="base SystemConfig preset (default ndp_2_5d)")
    sweep.add_argument("--seed", type=int, default=None,
                       help="workload seed forwarded to seedable workloads")
    sweep.add_argument("--faults", default=None, metavar="SPEC",
                       help="inject a fault plan into every run: permanent "
                            "link failures like '0>1@100', '2-3@50', or "
                            "scalars 'rate=0.1', 'seed=7', 'window=8000'")
    sweep.add_argument("--link-profile", default=None, metavar="SPEC",
                       help="per-channel bandwidth/latency overrides for "
                            "every run, e.g. '0>1=25.6:80,2-3=:200'")
    sweep.add_argument("--dry-run", action="store_true",
                       help="print the resolved run matrix and cache "
                            "hit/miss counts without simulating anything")
    add_runner_flags(sweep)

    corun = sub.add_parser(
        "corun",
        help="co-run tenants on one machine (interference / isolation)",
    )
    corun.add_argument("--tenants", metavar="T1,T2,...",
                       help="tenant workloads: primitives (lock), app combos "
                            "(bfs.wk), or structures (stack)")
    corun.add_argument("--units", metavar="N1,N2,...",
                       help="units per tenant (contiguous slices; default "
                            "even split)")
    corun.add_argument("--cores", metavar="N1,N2,...",
                       help="client cores per tenant instead of whole units "
                            "(tenants then share units/SEs/crossbars)")
    corun.add_argument("--mechanisms", metavar="M,N,...",
                       help="mechanisms to compare (default central,syncron)")
    corun.add_argument("--topologies", metavar="T,U,...",
                       help="fabrics to sweep (default all_to_all)")
    corun.add_argument("--interval", type=int, default=200,
                       help="instruction interval for primitive tenants "
                            "(default 200)")
    corun.add_argument("--rounds", type=int, default=None,
                       help="rounds for primitive tenants (default scaled)")
    corun.add_argument("--preset", default="ndp_2_5d",
                       help="base SystemConfig preset (default ndp_2_5d)")
    corun.add_argument("--check-isolation", action="store_true",
                       help="assert a whole-machine single tenant is "
                            "bit-identical to the plain run (exit 1 if not)")
    add_runner_flags(corun)

    cache = sub.add_parser(
        "cache",
        help="inspect/maintain the content-addressed result store",
    )
    cache.add_argument("action",
                       choices=("stats", "verify", "gc"),
                       help="stats: entries/bytes/shards; verify: re-hash "
                            "entries and quarantine corruption; gc: drop "
                            "stale-version entries and abandoned temp files")
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
    handler = {"list": cmd_list, "run": cmd_run, "sweep": cmd_sweep,
               "corun": cmd_corun, "cache": cmd_cache, "report": cmd_report,
               "lint": cmd_lint, "quickstart": cmd_quickstart}
    return handler[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
