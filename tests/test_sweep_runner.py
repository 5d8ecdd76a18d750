"""Spec hashing, result store, and parallel sweep determinism."""

import json
import shutil

import pytest

from repro.harness import runner as runner_mod
from repro.harness.runner import (
    execution_options,
    run_plan,
    run_specs,
)
from repro.harness import specs as specs_mod
from repro.harness.specs import RunSpec, freeze
from repro.harness.store import ShardedDirStore
from repro.sim.config import SystemConfig, ndp_2_5d
from repro.workloads.base import RunMetrics


def _entry_path(tmp_path, spec):
    """The sharded-store file holding ``spec``'s result."""
    return ShardedDirStore(tmp_path).path_for(spec.cache_key())


def _lock_spec(**kwargs):
    base = dict(workload="primitive", mechanism="syncron",
                args={"primitive": "lock", "interval": 100, "rounds": 3})
    base.update(kwargs)
    return RunSpec.make(base.pop("workload"), base.pop("mechanism"), **base)


class TestSpecHashing:
    def test_identical_specs_share_a_key(self):
        assert _lock_spec().cache_key() == _lock_spec().cache_key()

    def test_arg_order_is_canonical(self):
        a = RunSpec.make("primitive", "syncron",
                         args={"primitive": "lock", "interval": 100, "rounds": 3})
        b = RunSpec.make("primitive", "syncron",
                         args={"rounds": 3, "interval": 100, "primitive": "lock"})
        assert a.cache_key() == b.cache_key()

    @pytest.mark.parametrize("change", [
        {"mechanism": "central"},
        {"args": {"primitive": "lock", "interval": 100, "rounds": 4}},
        {"args": {"primitive": "barrier", "interval": 100, "rounds": 3}},
        {"overrides": {"num_units": 2}},
        {"overrides": {"link_latency": 100}},          # aliased field
        {"overrides": {"memory": "DDR4"}},             # nested DramTiming
        {"overrides": {"fairness_threshold": 4}},
        {"preset": "ndp_3d"},
    ])
    def test_any_changed_field_changes_the_key(self, change):
        assert _lock_spec(**change).cache_key() != _lock_spec().cache_key()

    def test_scale_is_part_of_the_key(self):
        assert (_lock_spec(run_scale="full").cache_key()
                != _lock_spec(run_scale="small").cache_key())

    def test_unknown_workload_and_config_field_rejected(self):
        with pytest.raises(ValueError):
            RunSpec.make("no_such_workload")
        with pytest.raises(ValueError):
            RunSpec.make("primitive", overrides={"not_a_field": 1})
        with pytest.raises(ValueError):
            RunSpec.make("primitive", preset="no_such_preset")

    def test_config_resolution_applies_alias_and_memory_name(self):
        spec = _lock_spec(overrides={"link_latency": 100, "memory": "HMC"})
        config = spec.config()
        assert config.link_latency_ns == 100
        assert config.memory.name == "HMC"

    def test_freeze_rejects_non_plain_data(self):
        with pytest.raises(TypeError):
            freeze({"bad": object()})

    def test_config_stable_hash_covers_nested_fields(self):
        base = ndp_2_5d()
        tweaked_memory = base.with_(memory=base.memory)
        assert base.stable_hash() == tweaked_memory.stable_hash()
        deep = base.with_(memory=base.memory.__class__(
            **{**base.memory.__dict__, "cas_ns": 9.0}))
        assert deep.stable_hash() != base.stable_hash()

    def test_config_dict_round_trip(self):
        config = ndp_2_5d(num_units=2, link_latency_ns=100.0)
        assert SystemConfig.from_dict(config.as_dict()) == config


class TestSourceEpoch:
    """The store epoch is a hash of the package source: every ``.py`` edit
    moves every cache key, and nothing else does."""

    @pytest.fixture
    def package(self, tmp_path):
        root = tmp_path / "repro"
        shutil.copytree(specs_mod.PACKAGE_ROOT, root,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return root

    def test_installed_package_is_hashed_once(self):
        assert specs_mod.source_epoch() == specs_mod.tree_digest(
            specs_mod.PACKAGE_ROOT)
        assert specs_mod.source_epoch.cache_info().currsize == 1

    def test_one_byte_of_any_source_file_changes_the_epoch(self, package):
        base = specs_mod.tree_digest(package)
        sources = sorted(package.rglob("*.py"))
        assert len(sources) > 50
        digests = set()
        for path in sources:
            data = path.read_bytes()
            path.write_bytes(data[:-1] + bytes([data[-1] ^ 1]) if data
                             else b"\n")
            digests.add(specs_mod.tree_digest(package))
            path.write_bytes(data)
        assert base not in digests and len(digests) == len(sources)
        assert specs_mod.tree_digest(package) == base

    def test_renaming_a_source_file_changes_the_epoch(self, package):
        base = specs_mod.tree_digest(package)
        (package / "sim" / "clock.py").rename(package / "sim" / "clock2.py")
        assert specs_mod.tree_digest(package) != base

    def test_pycache_and_other_files_are_ignored(self, package):
        base = specs_mod.tree_digest(package)
        cache = package / "sim" / "__pycache__"
        cache.mkdir()
        (cache / "clock.cpython-311.pyc").write_bytes(b"\0" * 16)
        (cache / "stray.py").write_text("x = 1\n")
        (package / "notes.txt").write_text("not source\n")
        (package / "analysis" / "baseline.json").write_text("{}\n")
        assert specs_mod.tree_digest(package) == base

    def test_tree_without_source_is_an_error(self, tmp_path):
        (tmp_path / "data.json").write_text("{}\n")
        with pytest.raises(RuntimeError, match="no Python source"):
            specs_mod.tree_digest(tmp_path)

    def test_cache_key_changes_with_the_epoch(self, monkeypatch):
        key = _lock_spec().cache_key()
        monkeypatch.setattr(specs_mod, "source_epoch", lambda: "0" * 64)
        edited = _lock_spec().cache_key()
        assert edited != key
        monkeypatch.setattr(specs_mod, "source_epoch", lambda: "1" * 64)
        assert _lock_spec().cache_key() not in (key, edited)


class TestResultCache:
    def test_hit_after_put(self, tmp_path):
        spec = _lock_spec()
        runner_mod.STATS.reset()
        first = run_specs([spec], cache=True, store=str(tmp_path))
        assert runner_mod.STATS.executed == 1
        runner_mod.STATS.reset()
        again = run_specs([spec], cache=True, store=str(tmp_path))
        assert runner_mod.STATS.executed == 0
        assert runner_mod.STATS.cache_hits == 1
        assert again[0] == first[0]

    def test_changed_nested_override_misses(self, tmp_path):
        run_specs([_lock_spec()], cache=True, store=str(tmp_path))
        runner_mod.STATS.reset()
        run_specs([_lock_spec(overrides={"memory": "DDR4"})],
                  cache=True, store=str(tmp_path))
        assert runner_mod.STATS.executed == 1

    def test_corrupted_entry_quarantined_and_recomputed(self, tmp_path):
        spec = _lock_spec()
        first = run_specs([spec], cache=True, store=str(tmp_path))
        path = _entry_path(tmp_path, spec)
        # truncate the stored object into invalid JSON
        path.write_text(path.read_text()[:40])
        runner_mod.STATS.reset()
        again = run_specs([spec], cache=True, store=str(tmp_path))
        assert runner_mod.STATS.executed == 1  # recomputed
        assert again[0] == first[0]
        # the damaged bytes were moved aside, not silently destroyed
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [path.name]

    def test_version_bump_invalidates(self, tmp_path):
        spec = _lock_spec()
        run_specs([spec], cache=True, store=str(tmp_path))
        path = _entry_path(tmp_path, spec)
        record = json.loads(path.read_text())
        record["version"] = "0" * 64  # written by other source code
        path.write_text(json.dumps(record) + "\n")
        runner_mod.STATS.reset()
        run_specs([spec], cache=True, store=str(tmp_path))
        assert runner_mod.STATS.executed == 1

    def test_duplicate_specs_simulate_once(self):
        runner_mod.STATS.reset()
        results = run_specs([_lock_spec(), _lock_spec()])
        assert runner_mod.STATS.executed == 1
        assert results[0] == results[1]

    def test_measurement_specs_cache_plain_rows(self, tmp_path):
        spec = RunSpec.make(
            "mesi_stack", "mesi", args={"ops_per_core": 2},
            overrides={"num_units": 1, "cores_per_unit": 3,
                       "client_cores_per_unit": 2},
        )
        row = run_specs([spec], cache=True, store=str(tmp_path))[0]
        assert isinstance(row, dict) and row["cycles"] > 0
        runner_mod.STATS.reset()
        warm = run_specs([spec], cache=True, store=str(tmp_path))[0]
        assert runner_mod.STATS.executed == 0
        assert warm == row


class TestParallelDeterminism:
    def test_parallel_matches_serial_on_fig12_subset(self):
        from repro.harness.experiments import fig12

        combos = ("tc.wk", "bfs.wk")
        mechanisms = ("central", "syncron")
        serial = run_plan(fig12(combos=combos, mechanisms=mechanisms))
        with execution_options(workers=2):
            parallel = run_plan(fig12(combos=combos, mechanisms=mechanisms))
        assert parallel == serial

    def test_parallel_run_specs_order_matches_spec_order(self):
        specs = [
            _lock_spec(mechanism=mech) for mech in ("central", "syncron", "ideal")
        ]
        serial = run_specs(specs, workers=1)
        parallel = run_specs(specs, workers=3)
        assert [m.cycles for m in parallel] == [m.cycles for m in serial]
        assert [m.mechanism for m in parallel] == ["central", "syncron", "ideal"]

    def test_metrics_survive_the_json_round_trip(self):
        metrics = run_specs([_lock_spec()])[0]
        assert RunMetrics.from_dict(
            json.loads(json.dumps(metrics.as_dict()))) == metrics


class TestSweepSpec:
    def test_matrix_cross_product(self):
        from repro.harness.experiments import sweep

        specs, _render = sweep(
            ("bfs.wk", "cc.sl"), mechanisms=("syncron", "hier"),
            vary={"link_latency": (1, 4, 16)},
        )
        assert len(specs) == 2 * 3 * 2
        # every spec resolves to a distinct cache key
        assert len({spec.cache_key() for spec in specs}) == len(specs)
        latencies = {spec.config().link_latency_ns for spec in specs}
        assert latencies == {1, 4, 16}

    def test_cli_sweep_expresses_a_non_figure_matrix(self, capsys):
        from repro.cli import main

        code = main([
            "run", "sweep", "--arg", "mechanisms=syncron,ideal",
            "--arg", "workloads=stack",
            "--vary", "fairness_threshold=0,2",
            "--no-cache",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fairness_threshold" in out
        assert out.count("stack") == 2  # one row per vary value

    def test_cli_sweep_rejects_unknown_field(self, capsys):
        from repro.cli import main

        assert main(["run", "sweep", "--arg", "workloads=stack",
                     "--vary", "bogus=1,2"]) == 2

    @pytest.mark.parametrize("argv", [
        ["--arg", "workloads=bfs.typo"],
        ["--arg", "workloads=nope.wk"],
        ["--arg", "workloads=ts.nope"],
        ["--arg", "workloads=dequeue"],
        ["--arg", "workloads=mutex"],
        ["--arg", "workloads=stack", "--arg", "mechanisms=syncron,quantum"],
    ])
    def test_cli_sweep_rejects_bad_names_before_running(self, argv, capsys,
                                                        monkeypatch):
        from repro.cli import main

        def simulate(spec):
            raise AssertionError(f"simulated {spec.describe()}")

        monkeypatch.setattr(runner_mod, "execute_spec", simulate)
        assert main(["run", "sweep", "--no-cache", *argv]) == 2
        assert "choose from" in capsys.readouterr().err

    def test_cli_csv_strips_whitespace(self):
        from repro.cli import _parse_value

        assert _parse_value("bfs.wk, cc.sl ,") == ("bfs.wk", "cc.sl")

    def test_seed_on_unseedable_workload_does_not_crash(self):
        # --seed on a mixed CLI sweep must not break deterministic
        # workloads whose constructors take no seed.
        spec = RunSpec.make("primitive",
                            args={"primitive": "lock", "interval": 100,
                                  "rounds": 2}, seed=3)
        assert spec.build_workload().rounds == 2
        # ...and since the seed is never forwarded, it must not split
        # cache keys between physically identical runs.
        assert spec.cache_key() == _lock_spec(
            args={"primitive": "lock", "interval": 100, "rounds": 2}
        ).cache_key()

    def test_int_and_float_overrides_share_a_key(self):
        # CLI sweeps parse 40 as int; figure code passes 40.0.
        a = _lock_spec(overrides={"link_latency": 40})
        b = _lock_spec(overrides={"link_latency_ns": 40.0})
        assert a.cache_key() == b.cache_key()
        c = _lock_spec(overrides={"st_entries": 8.0})
        d = _lock_spec(overrides={"st_entries": 8})
        assert c.cache_key() == d.cache_key()
        assert isinstance(c.config().st_entries, int)

    def test_seed_changes_structure_results_key(self):
        a = RunSpec.make("structure", args={"structure": "stack"}, seed=1)
        b = RunSpec.make("structure", args={"structure": "stack"}, seed=2)
        assert a.cache_key() != b.cache_key()
        # and the seed actually reaches the workload
        assert a.build_workload().seed == 1
        assert b.build_workload().seed == 2
