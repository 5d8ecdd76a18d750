"""Which functions under ``src/repro/`` does nothing but the tests reach?

Runs, in one process with one worker and the result cache off, everything
the repository measures or checks outside its unit tests:

- every registered experiment at ``REPRO_SCALE=small`` (``fig10`` once per
  primitive, ``fig11`` once per data structure);
- the three e2ebench spec lists (``apps``, ``structures``, ``spin``; seed 0);
- every ``repro`` command the CI workflow runs (``--workers`` forced to 1,
  stores and telemetry in a temporary directory);
- the five benchmark scripts CI runs (``bench_kernel``, ``bench_memsys``,
  ``bench_topology``, ``bench_corun``, ``bench_sweep``).

Calls are recorded with :func:`sys.setprofile`.  Every ``def`` under
``src/repro/`` is then matched to the recorded code objects by file and
``co_firstlineno`` (for a decorated function that is the line of its first
decorator, not of the ``def``), and the script prints the functions no call
reached, with their line counts, per file.  Nested functions inside an
unreached function count their lines once.

Takes about six minutes on a 2-vCPU machine; it is not part of tier-1 or
CI.  ``--json OUT`` writes the reached and unreached function names;
``--compare OLD`` lists the functions an earlier ``--json`` file recorded
as reached that this run did not reach::

    PYTHONPATH=src python benchmarks/reachability.py --json reach.json
    PYTHONPATH=src python benchmarks/reachability.py --compare reach.json
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import threading
from typing import Dict, List, Set, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro")

#: every ``repro`` invocation of .github/workflows/ci.yml, in order, with
#: ``--workers`` forced to 1.  ``{tmp}`` is a scratch directory.
CI_COMMANDS: Tuple[Tuple[str, ...], ...] = (
    ("lint", "--output", "{tmp}/lint-findings.json"),
    ("run", "fig10", "--arg", "primitive=lock", "--sanitize",
     "--telemetry", "{tmp}/san-tel"),
    ("run", "fig10", "--arg", "primitive=lock", "--no-cache"),
    ("run", "fig10", "--arg", "primitive=lock", "--no-cache", "--sanitize"),
    ("run", "fig10", "--arg", "primitive=lock", "--workers", "1",
     "--store", "{tmp}/cache"),
    ("run", "fig10", "--arg", "primitive=lock", "--workers", "1",
     "--store", "{tmp}/cache"),
    ("cache", "verify", "--store", "{tmp}/cache"),
    ("cache", "stats", "--store", "{tmp}/cache", "--json"),
    ("run", "ext_rwlock", "--arg", "read_pcts=50", "--no-cache"),
    ("run", "fig12", "--arg", "combo=bfs.wk"),
    ("sweep", "--primitives", "lock,barrier",
     "--mechanisms", "central,syncron,ideal", "--rounds", "3",
     "--interval", "120", "--vary", "link_latency=40,100",
     "--store", "dir:{tmp}/shared", "--workers", "1",
     "--telemetry", "{tmp}/telemetry-out"),
    ("cache", "verify", "--store", "{tmp}/shared"),
    ("report", "{tmp}/telemetry-out"),
    ("run", "topo_sensitivity", "--arg", "unit_steps=2,4",
     "--arg", "mechanisms=syncron", "--arg", "rounds=2"),
    ("sweep", "--primitives", "lock", "--mechanisms", "syncron",
     "--rounds", "3", "--interval", "120",
     "--vary", "topology=all_to_all,ring,mesh2d,torus2d", "--dry-run"),
    ("run", "degradation", "--arg", "topologies=ring",
     "--arg", "severities=0.25", "--arg", "mechanisms=central,syncron",
     "--arg", "num_units=4", "--arg", "rounds=2", "--arg", "window=4000"),
    ("sweep", "--primitives", "lock", "--mechanisms", "central,syncron",
     "--rounds", "2", "--interval", "120", "--faults", "0>1@100",
     "--link-profile", "2>3=6.4:80", "--vary", "topology=ring"),
    ("run", "degradation", "--faults", "unit:1@200"),
    ("run", "degradation", "--faults", "0>1@100+500"),
    ("sweep", "--primitives", "lock", "--mechanisms", "syncron",
     "--faults", "0>2@100", "--vary", "topology=ring", "--no-cache"),
    ("corun", "--tenants", "lock,barrier", "--rounds", "3",
     "--topologies", "all_to_all,ring", "--workers", "1"),
    ("corun", "--tenants", "lock", "--rounds", "3",
     "--mechanisms", "syncron,hier,central", "--check-isolation"),
    ("run", "interference", "--arg", "groups=lock+barrier",
     "--arg", "rounds=2", "--arg", "topologies=all_to_all", "--sanitize"),
    ("run", "interference", "--arg", "core_split=0,10"),
)

#: the benchmark scripts CI runs, each with ``--output``.
BENCH_SCRIPTS = ("bench_kernel", "bench_memsys", "bench_topology",
                 "bench_corun", "bench_sweep")


# ----------------------------------------------------------------------
# The measured loop
# ----------------------------------------------------------------------
def _experiments() -> None:
    from repro.harness.registry import EXPERIMENTS
    from repro.harness.runner import run_plan
    from repro.workloads.datastructures import ALL_STRUCTURES
    from repro.workloads.microbench import PRIMITIVES

    for experiment in EXPERIMENTS:
        if experiment.name == "fig10":
            calls = [{"primitive": p} for p in PRIMITIVES]
        elif experiment.name == "fig11":
            calls = [{"structure": s} for s in ALL_STRUCTURES]
        else:
            calls = [{}]
        for kwargs in calls:
            run_plan(experiment.plan(**kwargs))


def _e2ebench() -> None:
    from repro.harness.runner import run_specs

    sys.path.insert(0, os.path.join(ROOT, "e2ebench"))
    try:
        import suite
    finally:
        sys.path.pop(0)
    for workload in sorted(suite.WORKLOADS):
        run_specs(suite.build(workload, 0))


def _ci_commands(tmp: str) -> None:
    from repro.cli import main

    for command in CI_COMMANDS:
        argv = [part.format(tmp=tmp) for part in command]
        try:
            main(argv)
        except (Exception, SystemExit) as exc:  # a failing step still counts
            print(f"[reachability] {' '.join(argv)}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)


def _benchmarks(tmp: str) -> None:
    for name in BENCH_SCRIPTS:
        path = os.path.join(ROOT, "benchmarks", f"{name}.py")
        spec = importlib.util.spec_from_file_location(f"_reach_{name}", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        try:
            module.main(["--output", os.path.join(tmp, f"BENCH_{name}.json")])
        except (Exception, SystemExit) as exc:
            print(f"[reachability] {name}: {type(exc).__name__}: {exc}",
                  file=sys.stderr)


def record_calls() -> Set[Tuple[str, int]]:
    """Run the loop; the ``(file, co_firstlineno)`` of every called code."""
    from repro.harness.runner import execution_options

    seen: Set = set()
    add = seen.add

    def hook(frame, event, _arg):
        if event == "call":
            add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()):
        os.environ["REPRO_CACHE_DIR"] = os.path.join(tmp, "default-cache")
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            with execution_options(workers=1, cache=False):
                _experiments()
                _e2ebench()
            _ci_commands(tmp)
            _benchmarks(tmp)
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    return {(os.path.realpath(code.co_filename), code.co_firstlineno)
            for code in seen}


# ----------------------------------------------------------------------
# Static function table
# ----------------------------------------------------------------------
def function_table() -> List[Tuple[str, str, int, int]]:
    """``(relpath, qualname, first line, last line)`` of every ``def``."""
    table = []
    for dirpath, _dirs, files in sorted(os.walk(SRC)):
        for filename in sorted(files):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, os.path.dirname(SRC))
            with open(path, encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=path)
            names: Dict[str, int] = {}

            def visit(node, prefix: str) -> None:
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.ClassDef):
                        visit(child, f"{prefix}{child.name}.")
                    elif isinstance(child, (ast.FunctionDef,
                                            ast.AsyncFunctionDef)):
                        first = min([child.lineno] + [
                            d.lineno for d in child.decorator_list])
                        qualname = f"{prefix}{child.name}"
                        names[qualname] = names.get(qualname, 0) + 1
                        if names[qualname] > 1:  # property setters etc.
                            qualname += f"#{names[qualname]}"
                        table.append((rel, qualname, first, child.end_lineno))
                        visit(child, f"{qualname}.")
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return table


def unreached(reached: Set[Tuple[str, int]]):
    """Split the function table into reached names and unreached entries."""
    reached_names, missing = [], []
    for rel, qualname, first, last in function_table():
        path = os.path.realpath(os.path.join(os.path.dirname(SRC), rel))
        if (path, first) in reached:
            reached_names.append(f"{rel}:{qualname}")
        else:
            missing.append((rel, qualname, first, last))
    return reached_names, missing


def per_file(missing) -> Dict[str, Tuple[int, int]]:
    """relpath -> (unreached functions, distinct lines they span)."""
    lines: Dict[str, Set[int]] = {}
    counts: Dict[str, int] = {}
    for rel, _qualname, first, last in missing:
        counts[rel] = counts.get(rel, 0) + 1
        lines.setdefault(rel, set()).update(range(first, last + 1))
    return {rel: (counts[rel], len(lines[rel])) for rel in counts}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="OUT",
                        help="write reached/unreached function names here")
    parser.add_argument("--compare", metavar="OLD",
                        help="list functions OLD reached that this run did not")
    args = parser.parse_args(argv)
    os.environ.setdefault("REPRO_SCALE", "small")

    reached_names, missing = unreached(record_calls())
    table = per_file(missing)
    print(f"{'file':44s} {'functions':>9s} {'lines':>6s}")
    for rel, (functions, lines) in sorted(
            table.items(), key=lambda item: (-item[1][1], item[0])):
        print(f"{rel:44s} {functions:>9d} {lines:>6d}")
    total_functions = sum(f for f, _ in table.values())
    total_lines = sum(n for _, n in table.values())
    print(f"{'total':44s} {total_functions:>9d} {total_lines:>6d}")

    missing_names = sorted(f"{rel}:{q}" for rel, q, _first, _last in missing)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"reached": sorted(reached_names),
                       "unreached": missing_names,
                       "unreached_functions": total_functions,
                       "unreached_lines": total_lines}, fh, indent=1)
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            old_reached = set(json.load(fh)["reached"])
        newly = sorted(old_reached & set(missing_names))
        print(f"\n{len(newly)} function(s) reached before, unreached now")
        for name in newly:
            print(f"  {name}")
        return 1 if newly else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
