"""Run telemetry: the bus, its instrumentation, and the operator surface.

Contracts pinned here:

1. Bus mechanics — counters and spans aggregate correctly, and the JSONL
   event log and snapshot exports are well-formed.
2. Off-by-default — ``get_telemetry()`` is a no-op bus unless a session
   enabled one, and sessions restore the previous bus on exit.
3. Out-of-band observation — a run's result is equal with telemetry on
   or off, the store's records are byte-identical whichever writer made
   them, and the simulator never imports the bus.
4. Pool workers — a multi-worker sweep's per-process snapshots merge to
   exact totals: each worker exports only what it recorded itself.
5. CLI — ``--telemetry`` then ``report`` works end to end.
6. Regression gate — ``benchmarks/check_regression.py`` passes the
   committed baselines against themselves, fails degraded metrics, and
   skips parallel-speedup gates on a one-cpu box.
"""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from repro import cli
from repro.harness.reporting import format_table
from repro.harness.runner import execute_spec, execution_options, run_specs
from repro.harness.specs import RunSpec
from repro.harness.store import ShardedDirStore
from repro.workloads import base as workloads_base
from repro.telemetry import (
    NullTelemetry,
    Telemetry,
    get_telemetry,
    merge_snapshots,
    telemetry_session,
)

SMALL = {"num_units": 2, "cores_per_unit": 4, "client_cores_per_unit": 3}


def small_spec(**args) -> RunSpec:
    defaults = {"primitive": "lock", "interval": 120, "rounds": 6}
    defaults.update(args)
    return RunSpec.make("primitive", mechanism="syncron", args=defaults,
                       overrides=SMALL)


# ----------------------------------------------------------------------
# 1. Bus mechanics
# ----------------------------------------------------------------------
class TestBus:
    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.count("store.hits")
        tel.count("store.hits", 4)
        tel.count("sim.wall_seconds", 0.25)  # float counters add too
        tel.count("sim.wall_seconds", 0.5)
        snap = tel.snapshot()
        assert snap["counters"]["store.hits"] == 5
        assert snap["counters"]["sim.wall_seconds"] == pytest.approx(0.75)
        assert set(snap) >= {"counters", "spans"}
        assert not set(snap) & {"gauges", "histograms"}

    def test_span_aggregates_count_minmax_errors(self):
        tel = Telemetry()
        with tel.span("work"):
            pass
        with pytest.raises(RuntimeError):
            with tel.span("work"):
                raise RuntimeError("boom")
        cell = tel.snapshot()["spans"]["work"]
        assert cell["count"] == 2
        assert cell["errors"] == 1
        assert 0 <= cell["min_s"] <= cell["max_s"] <= cell["total_s"]

    def test_event_log_is_jsonl_per_worker_and_pid(self, tmp_path):
        tel = Telemetry(str(tmp_path), worker="w/1")
        tel.event("hello", x=1)
        tel.event("hello", x=2)
        tel.close()
        files = list(tmp_path.glob("events-*.jsonl"))
        assert len(files) == 1
        # the worker id is sanitized and the pid appended (fork safety)
        assert files[0].name.startswith("events-w_1-")
        records = [json.loads(line)
                   for line in files[0].read_text().splitlines()]
        assert [r["x"] for r in records] == [1, 2]
        assert all(r["event"] == "hello" and r["worker"] == "w/1"
                   for r in records)

    def test_export_writes_snapshot_json(self, tmp_path):
        tel = Telemetry(str(tmp_path), worker="w1")
        tel.count("c", 2)
        path = tel.export()
        loaded = json.loads(Path(path).read_text())
        assert loaded["counters"]["c"] == 2
        assert loaded["worker"] == "w1"

    def test_null_bus_is_inert(self):
        null = NullTelemetry()
        assert not null.enabled
        with null.span("x", anything=1):
            null.count("c")
            null.event("e")
        assert null.snapshot() == {}
        assert null.export() is None


# ----------------------------------------------------------------------
# 2. Sessions & defaults
# ----------------------------------------------------------------------
class TestSession:
    def test_disabled_by_default(self):
        assert get_telemetry().enabled is False

    def test_session_enables_exports_and_restores(self, tmp_path):
        before = get_telemetry()
        with telemetry_session(str(tmp_path), worker="s1") as tel:
            assert get_telemetry() is tel
            assert tel.enabled
            tel.count("c")
        assert get_telemetry() is before
        assert list(tmp_path.glob("snapshot-*.json"))
        events = list(tmp_path.glob("events-*.jsonl"))
        names = [json.loads(line)["event"]
                 for line in events[0].read_text().splitlines()]
        assert names[0] == "session.start" and names[-1] == "session.end"

    def test_session_without_directory_aggregates_only(self):
        with telemetry_session() as tel:
            tel.count("c", 2)
            assert tel.snapshot()["counters"]["c"] == 2
            assert tel.export() is None

    def test_merge_snapshots(self):
        a = Telemetry(worker="a")
        a.count("c", 1)
        with a.span("s"):
            pass
        b = Telemetry(worker="b")
        b.count("c", 2)
        b.count("b_only", 0.5)
        with b.span("s"):
            pass
        snap_a, snap_b = a.snapshot(), b.snapshot()
        merged = merge_snapshots([snap_a, snap_b])
        assert merged["workers"] == ["a", "b"]
        assert merged["counters"] == {"b_only": 0.5, "c": 3}
        cell = merged["spans"]["s"]
        assert cell["count"] == 2
        assert cell["total_s"] == pytest.approx(
            snap_a["spans"]["s"]["total_s"] + snap_b["spans"]["s"]["total_s"])
        assert cell["max_s"] == max(snap_a["spans"]["s"]["max_s"],
                                    snap_b["spans"]["s"]["max_s"])
        assert set(merged) == {"workers", "counters", "spans"}


# ----------------------------------------------------------------------
# 3. Out-of-band observation
# ----------------------------------------------------------------------
class TestPhysicsIsolation:
    def test_telemetry_run_result_equals_plain_run(self, monkeypatch):
        # rmw_spin elides polls, so both kernel counters read positive.
        spec = RunSpec.make("primitive", mechanism="rmw_spin",
                            args={"primitive": "lock", "interval": 120,
                                  "rounds": 6}, overrides=SMALL)
        plain = execute_spec(spec)["result"]
        observers = []
        collect = workloads_base.collect_metrics

        def spy(system, *args):
            observers.append(list(system.sim._observers))
            return collect(system, *args)

        monkeypatch.setattr(workloads_base, "collect_metrics", spy)
        with telemetry_session() as tel:
            observed = execute_spec(spec)["result"]
            counters = tel.snapshot()["counters"]
        assert observers == [[]]  # telemetry takes the fast drain
        assert observed == plain
        assert counters["sim.runs"] == 1
        assert counters["sim.events_processed"] == (
            plain["stats"]["kernel.events_processed"])
        assert counters["sim.elided_events"] == (
            plain["stats"]["kernel.elided_events"]) > 0
        assert counters["sim.wall_seconds"] > 0

    def test_bus_counters_track_simulation(self):
        with telemetry_session() as tel:
            execute_spec(small_spec())
            snap = tel.snapshot()
        assert snap["counters"]["sim.runs"] == 1
        assert snap["counters"]["sim.events_processed"] > 0
        assert snap["counters"]["sim.wall_seconds"] > 0
        assert snap["spans"]["spec.execute"]["count"] == 1

    def test_store_records_never_carry_telemetry_keys(self, tmp_path):
        # A telemetry-on writer and a telemetry-off writer of one spec
        # leave byte-identical records: there is nothing to strip.
        spec = small_spec(rounds=5)
        with telemetry_session() as tel:
            with execution_options(cache=True,
                                   store=f"dir:{tmp_path}/on"):
                observed = run_specs([spec])
            spans = tel.snapshot()["spans"]
        with execution_options(cache=True, store=f"dir:{tmp_path}/off"):
            plain = run_specs([spec])
        assert observed == plain
        assert spans["store.publish"]["count"] == 1
        key = spec.cache_key()
        on = ShardedDirStore(tmp_path / "on").path_for(key).read_bytes()
        off = ShardedDirStore(tmp_path / "off").path_for(key).read_bytes()
        assert on == off
        assert b"telemetry." not in on

    def test_simulator_never_imports_telemetry(self):
        src = Path(__file__).resolve().parent.parent / "src" / "repro"
        importers = []
        for package in ("sim", "core"):
            for path in sorted((src / package).rglob("*.py")):
                for node in ast.walk(ast.parse(path.read_text())):
                    if isinstance(node, ast.ImportFrom):
                        names = [node.module or ""]
                    elif isinstance(node, ast.Import):
                        names = [alias.name for alias in node.names]
                    else:
                        continue
                    if any(name.startswith("repro.telemetry")
                           for name in names):
                        importers.append(path.name)
        assert importers == []

    def test_store_counts_hits_and_misses(self, tmp_path):
        spec = small_spec(rounds=4)
        with telemetry_session() as tel:
            with execution_options(cache=True,
                                   store=f"dir:{tmp_path}/cache"):
                run_specs([spec])
                run_specs([spec])  # warm: served from the store
            counters = tel.snapshot()["counters"]
        assert counters["store.misses"] >= 1
        assert counters["store.publishes"] == 1
        assert counters["store.hits"] >= 1


# ----------------------------------------------------------------------
# 4. Pool workers export only their own counters
# ----------------------------------------------------------------------
def test_cold_multiworker_sweep_merges_to_exact_counters(tmp_path):
    # Forked workers inherit the parent's bus; each must start a fresh one
    # or the parent's pre-fork store misses are exported again.
    tel_dir = tmp_path / "tel"
    rc = cli.main([
        "run", "sweep", "--arg", "workloads=lock,barrier",
        "--arg", "mechanisms=central,syncron", "--arg", "rounds=3",
        "--arg", "interval=120", "--workers", "2",
        "--store", f"dir:{tmp_path}/cache", "--telemetry", str(tel_dir),
    ])
    assert rc == 0
    snapshots = [json.loads(path.read_text())
                 for path in tel_dir.glob("snapshot-*.json")]
    assert len(snapshots) >= 2  # the parent and the pool workers
    counters = merge_snapshots(snapshots)["counters"]
    n = 4
    assert counters["store.misses"] == n
    assert counters["store.publishes"] == n
    assert counters.get("store.hits", 0) == 0
    assert counters["sim.runs"] == n


# ----------------------------------------------------------------------
# 5. CLI: --telemetry / report
# ----------------------------------------------------------------------
class TestCli:
    def test_run_with_telemetry_then_report(self, tmp_path, capsys):
        tel_dir = tmp_path / "tel"
        rc = cli.main([
            "run", "sweep", "--arg", "workloads=lock",
            "--arg", "mechanisms=syncron", "--arg", "rounds=4",
            "--arg", "interval=120",
            "--store", f"dir:{tmp_path}/cache",
            "--telemetry", str(tel_dir),
        ])
        assert rc == 0
        assert list(tel_dir.glob("snapshot-*.json"))
        assert list(tel_dir.glob("events-*.jsonl"))
        capsys.readouterr()
        assert cli.main(["report", str(tel_dir)]) == 0
        out = capsys.readouterr().out
        assert "spec.execute" in out
        assert "store.publish" in out
        assert "sim.events_processed" in out
        assert "sim.wall_seconds" in out
        assert "session.start" in out
        assert "gauges" not in out and "histograms" not in out

    def test_report_empty_dir_exits_2(self, tmp_path, capsys):
        assert cli.main(["report", str(tmp_path)]) == 2

    def test_telemetry_disabled_after_cli_run(self, tmp_path):
        cli.main([
            "run", "sweep", "--arg", "workloads=lock",
            "--arg", "mechanisms=syncron", "--arg", "rounds=3",
            "--arg", "interval=120", "--no-cache",
            "--telemetry", str(tmp_path / "tel"),
        ])
        assert get_telemetry().enabled is False


# ----------------------------------------------------------------------
# 6. The regression gate
# ----------------------------------------------------------------------
REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_gate():
    path = REPO_ROOT / "benchmarks" / "check_regression.py"
    spec = importlib.util.spec_from_file_location("check_regression", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def gate():
    return _load_gate()


class TestRegressionGate:
    def test_committed_baselines_pass_against_themselves(self, gate,
                                                         capsys):
        assert gate.main([]) == 0
        out = capsys.readouterr().out
        assert "0 failed" in out

    def test_degraded_metrics_fail(self, gate, tmp_path, capsys):
        for name in gate.GATES:
            src = REPO_ROOT / name
            doc = json.loads(src.read_text())
            (tmp_path / name).write_text(json.dumps(doc))
        kernel = json.loads((tmp_path / "BENCH_kernel.json").read_text())
        kernel["kernel_microbench"]["overall"]["speedup"] = 0.5
        kernel["end_to_end"]["simulated_cycles"] += 1
        (tmp_path / "BENCH_kernel.json").write_text(json.dumps(kernel))
        sweep = json.loads((tmp_path / "BENCH_sweep.json").read_text())
        sweep["warm_workers1"]["simulations_executed"] = 2
        (tmp_path / "BENCH_sweep.json").write_text(json.dumps(sweep))
        assert gate.main(["--fresh", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "kernel_microbench.overall.speedup" in out
        assert "end_to_end.simulated_cycles" in out
        assert "warm_workers1.simulations_executed" in out

    def test_cpu1_skips_parallel_speedup_gate(self, gate, tmp_path, capsys):
        sweep = json.loads((REPO_ROOT / "BENCH_sweep.json").read_text())
        sweep["cpu_count"] = 1  # a fresh run on a 1-cpu box
        (tmp_path / "BENCH_sweep.json").write_text(json.dumps(sweep))
        assert gate.main(["--fresh", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines()
                if "workers.4.speedup_vs_serial" in l][0]
        assert "[SKIP]" in line and "not measurable" in line

    def test_committed_baseline_evaluates_speedup_gate(self, gate, capsys):
        base = json.loads((REPO_ROOT / "BENCH_sweep.json").read_text())
        assert base["cpu_count"] > 1  # recorded where workers can help
        assert gate.main([]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if "workers.4.speedup_vs_serial" in l][0]
        assert "[PASS]" in line

    def test_missing_fresh_artifact_skips(self, gate, tmp_path, capsys):
        assert gate.main(["--fresh", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("benchmark not run") == len(gate.GATES)

    def test_max_ratio_gate(self, gate):
        """Lower is better: a fresh value may rise by at most the
        tolerance, and any fall passes."""
        base = {"t": 2.0}
        for fresh, status in ((2.5, "PASS"), (2.51, "FAIL"), (0.5, "PASS")):
            entry = gate.check_gate("max_ratio", "t", 0.25, {"t": fresh},
                                    base)
            assert entry["status"] == status, fresh
        missing = gate.check_gate("max_ratio", "t", 0.25, {}, base)
        assert missing["status"] == "FAIL"

    def test_slower_e2e_fails(self, gate, tmp_path, capsys):
        doc = json.loads((REPO_ROOT / "BENCH_e2e.json").read_text())
        doc["workloads"]["structures"]["wall_s"] *= 1.5
        doc["workloads"]["spin"]["failed"] = 1
        (tmp_path / "BENCH_e2e.json").write_text(json.dumps(doc))
        assert gate.main(["--fresh", str(tmp_path)]) == 1
        failed = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("[FAIL]")]
        assert len(failed) == 2
        assert any("workloads.structures.wall_s" in l for l in failed)
        assert any("workloads.spin.failed" in l for l in failed)

    def test_slower_e2e_setup_fails(self, gate, tmp_path, capsys):
        doc = json.loads((REPO_ROOT / "BENCH_e2e.json").read_text())
        doc["workloads"]["spin"]["setup_s"] *= 1.5
        (tmp_path / "BENCH_e2e.json").write_text(json.dumps(doc))
        assert gate.main(["--fresh", str(tmp_path)]) == 1
        failed = [l for l in capsys.readouterr().out.splitlines()
                  if l.startswith("[FAIL]")]
        assert len(failed) == 1 and "workloads.spin.setup_s" in failed[0]

    def test_bytecode_mismatch_skips_setup_gate(self, gate, tmp_path,
                                                capsys):
        doc = json.loads((REPO_ROOT / "BENCH_e2e.json").read_text())
        doc["writes_bytecode"] = not doc["writes_bytecode"]
        doc["workloads"]["spin"]["setup_s"] *= 1.5
        (tmp_path / "BENCH_e2e.json").write_text(json.dumps(doc))
        assert gate.main(["--fresh", str(tmp_path)]) == 0
        line = [l for l in capsys.readouterr().out.splitlines()
                if "workloads.*.setup_s" in l][0]
        assert "[SKIP]" in line and "writes_bytecode differs" in line

    def test_wildcard_expansion(self, gate):
        doc = {"a": {"x": {"v": 1}, "y": {"v": 2}}, "b": 3}
        assert gate.expand_paths(doc, "a.*.v") == ["a.x.v", "a.y.v"]
        assert gate.expand_paths(doc, "a.z.v") == []
        assert gate.lookup(doc, "a.y.v") == 2
        assert gate.lookup(doc, "b.c") is gate._MISSING

    def test_json_report(self, gate, capsys):
        assert gate.main(["--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["failed"] == 0
        assert report["passed"] > 0


# ----------------------------------------------------------------------
# 7. format_table column discovery (heterogeneous rows)
# ----------------------------------------------------------------------
class TestFormatTable:
    def test_columns_are_union_in_first_seen_order(self):
        rows = [{"a": 1}, {"a": 2, "b": 3}, {"c": 4}]
        out = format_table(rows)
        header = out.splitlines()[0].split()
        assert header == ["a", "b", "c"]
        assert "4" in out  # the c-only row renders

    def test_private_keys_hidden_and_empty_rows_ok(self):
        assert "no rows" in format_table([])
        out = format_table([{"_hidden": 1, "x": 2}])
        assert "_hidden" not in out and "x" in out
        assert "no columns" in format_table([{"_only": 1}])
