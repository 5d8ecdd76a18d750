"""CLI (`python -m repro`) and the message tracer."""

import pytest

from repro.cli import _parse_value, build_parser, main
from repro.core import api
from repro.harness import runner
from repro.harness.registry import EXPERIMENTS, find
from repro.sim.program import Compute
from repro.sim.trace import MessageTracer

from repro.testing import build_system


class TestCliParsing:
    def test_parse_scalars(self):
        assert _parse_value("15") == 15
        assert _parse_value("2.5") == 2.5
        assert _parse_value("stack") == "stack"

    def test_parse_tuples(self):
        assert _parse_value("15,30") == (15, 30)
        assert _parse_value("ts.air,ts.pow") == ("ts.air", "ts.pow")
        assert _parse_value("15,") == (15,)

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_experiment_has_a_description(self):
        for experiment in EXPERIMENTS:
            assert callable(experiment.plan)
            assert experiment.description


class TestCliCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig22" in out and "table1" in out

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "fig99"]) == 2

    def test_run_missing_required_arg(self, capsys):
        assert main(["run", "fig11"]) == 2

    def test_run_bad_arg_syntax(self, capsys):
        assert main(["run", "fig22", "--arg", "nonsense"]) == 2

    @pytest.mark.parametrize("sanitize", [[], ["--sanitize"]],
                             ids=["plain", "sanitize"])
    @pytest.mark.parametrize("workers", ["0", "-1"])
    def test_run_rejects_non_positive_workers(self, monkeypatch, capsys,
                                              workers, sanitize):
        def simulate(spec):
            raise AssertionError(f"simulated {spec.describe()}")

        monkeypatch.setattr(runner, "execute_spec", simulate)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "fig10", "--arg", "primitive=lock", "--no-cache",
                  "--workers", workers, *sanitize])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --workers: must be >= 1, got {workers}" in err
        assert "Traceback" not in err

    def test_run_unknown_arg_key_lists_accepted_names(self, capsys):
        assert main(["run", "fig12", "--arg", "combo=bfs.wk"]) == 2
        err = capsys.readouterr().err
        assert "'combo'" in err and "combos, mechanisms" in err

    @pytest.mark.parametrize("argv,message", [
        (["run", "degradation", "--faults", "garbage"],
         "bad --faults clause 'garbage'"),
        (["run", "fig16", "--arg", "latencies_ns=-5"],
         "link_latency_ns must be non-negative"),
        (["run", "sweep", "--arg", "workloads=lock",
          "--arg", "mechanisms=syncron", "--faults", "0>2@100",
          "--vary", "topology=ring", "--no-cache"],
         "fault_links channel (0, 2) does not exist in the 'ring' fabric"),
        (["run", "interference", "--arg", "groups=lock+barrier",
          "--arg", "core_split=0,10", "--arg", "rounds=1", "--no-cache"],
         "every tenant needs at least one core"),
        (["run", "interference", "--arg", "groups=lock+barrier",
          "--arg", "core_split=0,10"],
         "every tenant needs at least one core"),
        (["run", "fig12", "--arg", "combos=bfs.wk,xx.yy", "--no-cache"],
         "unknown application 'xx'"),
        (["run", "fig11", "--arg", "structure=nosuch", "--no-cache"],
         "unknown structure 'nosuch'"),
        (["run", "fig10", "--arg", "primitive=lock", "--arg", "intervals=abc",
          "--no-cache"],
         "primitive interval must be an int, got 'abc'"),
        (["run", "fig12", "--arg", "mechanisms=quantum",
          "--arg", "combos=tc.sx", "--no-cache"],
         "unknown mechanism 'quantum'; choose from"),
        (["run", "fig12", "--vary", "link_latency=40,100"],
         "fig12 takes no argument 'vary'"),
        (["run", "sweep", "--arg", "workloads=lock", "--vary", "topology"],
         "--vary expects key=value, got 'topology'"),
        (["run", "sweep", "--arg", "workloads=lock", "--arg", "vary=st"],
         "sweep's 'vary' is a mapping; --arg cannot set it"),
        (["run", "isolation", "--arg", "base_overrides=5"],
         "isolation's 'base_overrides' is a mapping; --arg cannot set it"),
        (["run", "sweep", "--arg", "workloads=stack", "--arg", "seed=abc"],
         "seed must be an int, got 'abc'"),
        (["run", "sweep", "--arg", "workloads=lock,semaphore",
          "--arg", "mechanisms=rmw_spin,bakery,syncron", "--arg", "rounds=4",
          "--dry-run"],
         "mechanism 'bakery' does not implement sem_wait, sem_post"),
        (["run", "fig12", "--arg", "combos=bfs.wk",
          "--arg", "mechanisms=bakery", "--no-cache"],
         "mechanism 'bakery' does not implement barrier_wait_within_unit, "
         "barrier_wait_across_units"),
    ], ids=["run-bad-faults", "run-negative-latency", "sweep-missing-channel",
            "run-zero-core-split", "corun-zero-cores", "run-unknown-combo",
            "run-unknown-structure", "run-non-int-interval",
            "run-unknown-mechanism", "run-vary-on-other-plan",
            "run-vary-without-values", "run-vary-through-arg",
            "run-mapping-through-arg", "run-non-int-seed",
            "dry-run-semaphore-on-bakery", "run-barriers-on-bakery"])
    def test_invalid_override_exits_2_before_simulating(
            self, monkeypatch, capsys, argv, message):
        def simulate(spec):
            raise AssertionError(f"simulated {spec.describe()}")

        monkeypatch.setattr(runner, "execute_spec", simulate)
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    def test_dry_run_simulates_nothing(self, monkeypatch, capsys):
        def simulate(spec):
            raise AssertionError(f"simulated {spec.describe()}")

        monkeypatch.setattr(runner, "execute_spec", simulate)
        assert main(["run", "fig12", "--dry-run", "--no-cache"]) == 0
        out = capsys.readouterr()
        assert "fig12 (dry run)" in out.out
        assert "app(combo=tc.sx)/syncron" in out.out
        assert ("[dry-run] 104 runs: 0 cached, 104 to simulate, "
                "0 deduplicated") in out.err

    def test_sanitize_runs_uncached_in_one_process(self, tmp_path,
                                                 monkeypatch, capsys):
        argv = ["run", "fig10", "--arg", "primitive=lock",
                "--arg", "intervals=200", "--arg", "rounds=2",
                "--arg", "mechanisms=central,syncron",
                "--store", str(tmp_path)]
        assert main(argv) == 0
        assert "[runner] 2 runs: 2 simulated" in capsys.readouterr().err

        def pool(*_args):
            raise AssertionError("a sanitized run started a worker pool")

        monkeypatch.setattr(runner, "_run_pool", pool)
        assert main(argv + ["--sanitize", "--workers", "2"]) == 0
        err = capsys.readouterr().err
        assert "[runner] 2 runs: 2 simulated, 0 served from cache" in err
        assert "[sanitize]" in err

    def test_run_isolation_reports_identical_rows(self, capsys):
        code = main(["run", "isolation", "--arg", "descs=lock",
                     "--arg", "mechanisms=syncron,central",
                     "--arg", "rounds=2", "--no-cache"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("True") == 2 and "False" not in out

    def test_sweep_and_corun_subcommands_are_gone(self):
        for command in ("sweep", "corun"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_run_scalar_for_a_sequence_kwarg(self, capsys):
        code = main(["run", "ext_rwlock", "--arg", "read_pcts=50",
                     "--arg", "mechanisms=ideal", "--arg", "rounds=2",
                     "--no-cache"])
        assert code == 0
        assert "50" in capsys.readouterr().out

    def test_run_fig11_scalar_sequence_coercion(self, capsys):
        code = main(["run", "fig11", "--arg", "structure=hashtable",
                     "--arg", "core_steps=15",
                     "--arg", "mechanisms=syncron,ideal"])
        assert code == 0
        out = capsys.readouterr().out
        assert "syncron" in out and "15" in out

    def test_run_fig2_dict_result(self, capsys):
        code = main(["run", "fig2", "--arg", "ops_per_core=3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "a_cores" in out and "b_units" in out

    def test_quickstart(self, capsys):
        assert main(["quickstart"]) == 0
        assert "0 lost updates" in capsys.readouterr().out

    def test_extension_experiments_listed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("ext_spin", "ext_overflow", "ext_rwlock",
                     "ext_fairness", "ext_se_knee"):
            assert name in out

    def test_run_ext_fairness_with_plot(self, capsys):
        code = main(["run", "ext_fairness", "--arg", "thresholds=0,2",
                     "--arg", "rounds=6", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "unit_finish_spread" in out
        assert "o=makespan" in out  # the line chart's legend

    def test_plot_flag_without_mapping_warns(self, capsys):
        code = main(["run", "table7", "--arg", "combos=ts.air", "--plot"])
        assert code == 0
        assert "no plot mapping" in capsys.readouterr().err


class TestRenderPlot:
    def test_line_mapping(self):
        rows = [
            {"cores": 15, "bakery": 1.0, "rmw_spin": 2.0,
             "syncron": 3.0, "ideal": 4.0},
            {"cores": 30, "bakery": 0.5, "rmw_spin": 1.5,
             "syncron": 3.5, "ideal": 5.0},
        ]
        chart = find("ext_spin").chart(rows)
        assert chart is not None
        assert "o=bakery" in chart

    def test_unknown_experiment_returns_none(self):
        assert find("table1").chart([{"a": 1}]) is None

    def test_missing_series_returns_none(self):
        assert find("ext_spin").chart([{"cores": 15}]) is None

    def test_bar_mapping(self):
        rows = [{"app": "bfs.wk", "hier": 1.1, "syncron": 1.4, "ideal": 1.6}]
        chart = find("fig12").chart(rows)
        assert "syncron" in chart and "#" in chart


class TestMessageTracer:
    def run_traced(self, mechanism="syncron"):
        from repro.testing import ALL_MECHANISMS  # noqa: F401

        from repro.sim.config import ndp_2_5d
        from repro.sim.system import NDPSystem

        system = NDPSystem(
            ndp_2_5d(num_units=2, cores_per_unit=3, client_cores_per_unit=2),
            mechanism=mechanism,
        )
        tracer = MessageTracer(system)
        lock = system.create_syncvar(unit=1, name="traced_lock")

        def worker():
            for _ in range(2):
                yield api.lock_acquire(lock)
                yield Compute(10)
                yield api.lock_release(lock)

        system.run_programs({c.core_id: worker() for c in system.cores})
        return system, tracer, lock

    def test_records_all_protocol_messages(self):
        system, tracer, lock = self.run_traced()
        assert len(tracer) > 0
        summary = tracer.summary()
        assert summary["LOCK_ACQUIRE_LOCAL"] == 8  # 4 cores x 2 ops
        assert summary["LOCK_RELEASE_LOCAL"] == 8
        assert summary.get("LOCK_ACQUIRE_GLOBAL", 0) >= 1  # unit 0 -> master

    def test_timestamps_monotonic_per_engine(self):
        _, tracer, _ = self.run_traced()
        per_engine = {}
        for record in tracer.records:
            per_engine.setdefault(record.engine, []).append(record.time)
        for times in per_engine.values():
            assert times == sorted(times)

    def test_variable_and_core_filters(self):
        system, tracer, lock = self.run_traced()
        for record in tracer.for_variable(lock):
            assert record.variable == "traced_lock"
        core0 = tracer.for_core(0)
        assert all(r.core == 0 for r in core0)
        assert core0  # core 0 definitely sent messages

    def test_between_and_format(self):
        _, tracer, _ = self.run_traced()
        window = tracer.between(0, tracer.records[-1].time)
        assert len(window) == len(tracer)
        text = tracer.format(limit=5)
        assert "LOCK_" in text
        if len(tracer) > 5:
            assert "more)" in text

    def test_tracing_does_not_change_timing(self):
        from repro.sim.config import ndp_2_5d
        from repro.sim.system import NDPSystem

        def run(traced):
            system = NDPSystem(
                ndp_2_5d(num_units=2, cores_per_unit=3,
                         client_cores_per_unit=2),
                mechanism="syncron",
            )
            if traced:
                MessageTracer(system)
            lock = system.create_syncvar(unit=0)

            def worker():
                for _ in range(3):
                    yield api.lock_acquire(lock)
                    yield api.lock_release(lock)

            return system.run_programs(
                {c.core_id: worker() for c in system.cores}
            )

        assert run(False) == run(True)

    def test_works_on_central(self):
        _, tracer, _ = self.run_traced("central")
        assert tracer.summary()["LOCK_ACQUIRE_LOCAL"] == 8
