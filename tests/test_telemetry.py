"""Run telemetry: the bus, its instrumentation, and the operator surface.

Contracts pinned here:

1. Bus mechanics — counters/gauges/spans/histograms aggregate correctly,
   and the JSONL event log and snapshot exports are well-formed.
2. Off-by-default — ``get_telemetry()`` is a no-op bus unless a session
   enabled one, and sessions restore the previous bus on exit.
3. Physics isolation — enabling telemetry changes *no* simulated counter;
   only the reserved ``telemetry.*`` keys appear, they are stripped from
   every record the result store publishes, and the in-process caller
   still sees them.
4. Pool workers — a multi-worker sweep's per-process snapshots merge to
   exact totals: each worker exports only what it recorded itself.
5. CLI — ``--telemetry`` then ``report`` works end to end.
6. Regression gate — ``benchmarks/check_regression.py`` passes the
   committed baselines against themselves, fails degraded metrics, and
   skips parallel-speedup gates on a one-cpu box.
"""

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
from repro.telemetry import (
    HISTOGRAM_BUCKETS,
    NullTelemetry,
    Telemetry,
    get_telemetry,
    merge_snapshots,
    strip_volatile_stats,
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
    def test_counters_gauges_accumulate(self):
        tel = Telemetry()
        tel.count("store.hits")
        tel.count("store.hits", 4)
        tel.gauge("sweep.remaining", 9)
        tel.gauge("sweep.remaining", 3)
        snap = tel.snapshot()
        assert snap["counters"]["store.hits"] == 5
        assert snap["gauges"]["sweep.remaining"] == 3

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

    def test_histogram_buckets_and_moments(self):
        tel = Telemetry()
        tel.observe("lat", 0.0002)   # second bucket (<= 0.0003)
        tel.observe("lat", 2.0)      # <= 3.0 bucket
        tel.observe("lat", 99.0)     # +inf
        hist = tel.snapshot()["histograms"]["lat"]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(101.0002)
        assert hist["inf"] == 1
        assert hist["buckets"]["0.0003"] == 1
        assert hist["buckets"]["3.0"] == 1

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
            null.gauge("g", 1)
            null.observe("h", 1.0)
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

    def test_strip_volatile_stats(self):
        stats = {"cycles": 10, "telemetry.wall_seconds": 0.5}
        stripped = strip_volatile_stats(stats)
        assert stripped == {"cycles": 10}
        clean = {"cycles": 10, "kernel.events_processed": 4}
        # kernel.* is effort but reproducible: kept; same object returned
        assert strip_volatile_stats(clean) is clean

    def test_merge_snapshots(self):
        a = Telemetry(worker="a")
        a.count("c", 1)
        a.gauge("g", 10)
        with a.span("s"):
            pass
        a.observe("h", 0.01)
        b = Telemetry(worker="b")
        b.count("c", 2)
        b.gauge("g", 20)
        with b.span("s"):
            pass
        b.observe("h", 5.0)
        snap_a, snap_b = a.snapshot(), b.snapshot()
        snap_b["written_at"] = snap_a["written_at"] + 10  # b is newer
        merged = merge_snapshots([snap_a, snap_b])
        assert merged["workers"] == ["a", "b"]
        assert merged["counters"]["c"] == 3
        assert merged["gauges"]["g"] == 20  # latest write wins
        assert merged["spans"]["s"]["count"] == 2
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["sum"] == pytest.approx(5.01)


# ----------------------------------------------------------------------
# 3. Physics isolation
# ----------------------------------------------------------------------
class TestPhysicsIsolation:
    def test_profiled_run_is_bit_identical_plus_telemetry_keys(self):
        spec = small_spec()
        plain = execute_spec(spec)["result"]
        with telemetry_session():
            profiled = execute_spec(spec)["result"]
        tel_keys = {k for k in profiled["stats"]
                    if k.startswith("telemetry.")}
        assert tel_keys  # the wall-clock profile was attached
        assert "telemetry.wall_seconds" in tel_keys
        assert "telemetry.events_per_sec" in tel_keys
        stripped = dict(profiled)
        stripped["stats"] = {k: v for k, v in profiled["stats"].items()
                             if k not in tel_keys}
        assert stripped == plain  # physics bit-identical
        # attribution fractions cover the whole sampled run
        attr = [v for k, v in profiled["stats"].items()
                if k.startswith("telemetry.attr.")]
        assert attr and sum(attr) == pytest.approx(1.0)

    def test_bus_counters_track_simulation(self):
        with telemetry_session() as tel:
            execute_spec(small_spec())
            snap = tel.snapshot()
        assert snap["counters"]["sim.runs"] == 1
        assert snap["counters"]["sim.events_processed"] > 0
        assert snap["spans"]["spec.execute"]["count"] == 1

    def test_store_records_never_carry_telemetry_keys(self, tmp_path):
        spec = small_spec(rounds=5)
        with telemetry_session():
            with execution_options(cache=True,
                                   store=f"dir:{tmp_path}/cache"):
                results = run_specs([spec])
        # caller still sees the wall-clock profile...
        assert any(k.startswith("telemetry.")
                   for k in results[0].stats)
        # ...but the durable record is reproducible content only
        store = ShardedDirStore(tmp_path / "cache")
        record = store.get(spec.cache_key())
        assert record is not None
        assert not any(k.startswith("telemetry.")
                       for k in record["result"]["stats"])

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
        assert "sim.events_processed" in out
        assert "session.start" in out

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
