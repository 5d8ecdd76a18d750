"""The lint engine's own coverage: every rule must catch an injected
violation (positive fixture), ignore the compliant twin (negative), honour
``# repro: noqa`` inline suppressions and baseline entries, and the CLI
must exit non-zero on new findings — that is the property the CI gate
rests on.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis.base import RULES, noqa_map
from repro.analysis.engine import (
    LintError,
    default_baseline_path,
    default_source_root,
    lint_package,
    lint_paths,
    load_baseline,
    write_baseline,
)


def lint_source(tmp_path: Path, module_path: str, source: str, *,
                rule_ids=None, baseline=None):
    """Lint one synthetic module placed at ``module_path`` under a fake
    source root, e.g. ``repro/sim/fake.py``."""
    path = tmp_path / module_path
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_paths([path], tmp_path, rule_ids, baseline=baseline)


def rules_hit(report):
    return sorted({f.rule for f in report.findings})


# ----------------------------------------------------------------------
# RP001: nondeterminism sources
# ----------------------------------------------------------------------
class TestRP001:
    def test_positive_each_source(self, tmp_path):
        src = (
            "import os, random, time\n"
            "def f(name, x):\n"
            "    a = time.time()\n"
            "    b = random.randrange(4)\n"
            "    c = hash(name)\n"
            "    d = id(x)\n"
            "    e = os.urandom(8)\n"
            "    return a, b, c, d, e\n"
        )
        report = lint_source(tmp_path, "repro/sim/fake.py", src,
                             rule_ids=["RP001"])
        assert len(report.findings) == 5
        assert rules_hit(report) == ["RP001"]

    def test_negative_seeded_rng_and_crc(self, tmp_path):
        src = (
            "import random, zlib\n"
            "from time import perf_counter\n"
            "def f(name):\n"
            "    rng = random.Random(42)\n"
            "    seed = zlib.crc32(name.encode())\n"
            "    return rng.randrange(4), seed\n"
        )
        report = lint_source(tmp_path, "repro/sim/fake.py", src,
                             rule_ids=["RP001"])
        assert report.findings == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        """Harness/telemetry code may read wall-clock time."""
        src = "import time\nNOW = time.time()\n"
        report = lint_source(tmp_path, "repro/harness/fake.py", src,
                             rule_ids=["RP001"])
        assert report.findings == []

    def test_noqa_suppresses(self, tmp_path):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: noqa RP001\n"
        )
        report = lint_source(tmp_path, "repro/sim/fake.py", src,
                             rule_ids=["RP001"])
        assert report.findings == []
        assert report.suppressed_count == 1

    def test_noqa_for_other_rule_does_not_suppress(self, tmp_path):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro: noqa RP002\n"
        )
        report = lint_source(tmp_path, "repro/sim/fake.py", src,
                             rule_ids=["RP001"])
        assert len(report.findings) == 1

    def test_baselined_finding_reported_separately(self, tmp_path):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()\n"
        )
        first = lint_source(tmp_path, "repro/sim/fake.py", src,
                            rule_ids=["RP001"])
        assert len(first.findings) == 1
        baseline = {f.fingerprint(): "known" for f in first.findings}
        second = lint_source(tmp_path, "repro/sim/fake.py", src,
                             rule_ids=["RP001"], baseline=baseline)
        assert second.findings == []
        assert len(second.baselined) == 1
        assert second.clean


# ----------------------------------------------------------------------
# RP002: unordered set iteration
# ----------------------------------------------------------------------
class TestRP002:
    def test_positive_for_loop_over_set(self, tmp_path):
        src = (
            "def route(units):\n"
            "    targets = set(units)\n"
            "    for u in targets:\n"
            "        yield u\n"
        )
        report = lint_source(tmp_path, "repro/sim/topo/fake.py", src,
                             rule_ids=["RP002"])
        assert len(report.findings) == 1

    def test_positive_set_literal_and_comprehension(self, tmp_path):
        src = (
            "def f(xs):\n"
            "    a = [v for v in {1, 2, 3}]\n"
            "    b = list(frozenset(xs))\n"
            "    return a, b\n"
        )
        report = lint_source(tmp_path, "repro/workloads/graphs/fake.py", src,
                             rule_ids=["RP002"])
        assert len(report.findings) == 2

    def test_negative_sorted_wrapper(self, tmp_path):
        src = (
            "def route(units):\n"
            "    targets = set(units)\n"
            "    for u in sorted(targets):\n"
            "        yield u\n"
        )
        report = lint_source(tmp_path, "repro/sim/topo/fake.py", src,
                             rule_ids=["RP002"])
        assert report.findings == []

    def test_negative_membership_only(self, tmp_path):
        src = (
            "def f(xs, y):\n"
            "    seen = set(xs)\n"
            "    return y in seen\n"
        )
        report = lint_source(tmp_path, "repro/sim/topo/fake.py", src,
                             rule_ids=["RP002"])
        assert report.findings == []

    def test_out_of_scope_module_ignored(self, tmp_path):
        src = "def f(xs):\n    return [v for v in set(xs)]\n"
        report = lint_source(tmp_path, "repro/harness/fake.py", src,
                             rule_ids=["RP002"])
        assert report.findings == []


# ----------------------------------------------------------------------
# RP003: SystemConfig field coverage
# ----------------------------------------------------------------------
_CONFIG_TEMPLATE = """\
from dataclasses import asdict, dataclass, fields

@dataclass(frozen=True)
class SystemConfig:
    num_units: int = 4
    new_knob: int = 1

    def as_dict(self):
        return {as_dict_body}

    def validate(self):
        if self.num_units < 1:
            raise ValueError("bad")
{validate_extra}
"""

_KNOB_CHECK = ("        if self.new_knob < 0:\n"
               "            raise ValueError('bad knob')\n")


def _rp003_findings(tmp_path, as_dict_body, validate_extra=_KNOB_CHECK):
    src = _CONFIG_TEMPLATE.format(as_dict_body=as_dict_body,
                                  validate_extra=validate_extra)
    return lint_source(tmp_path, "repro/sim/config.py", src,
                       rule_ids=["RP003"]).findings


class TestRP003:
    def test_full_coverage_idioms_pass(self, tmp_path):
        assert _rp003_findings(tmp_path, "asdict(self)") == []

    def test_field_missing_from_enumerating_as_dict(self, tmp_path):
        findings = _rp003_findings(tmp_path,
                                   '{"num_units": self.num_units}')
        assert [f for f in findings if "as_dict" in f.message]

    def test_unvalidated_field_flagged(self, tmp_path):
        findings = _rp003_findings(tmp_path, "asdict(self)",
                                   validate_extra="")
        messages = [f.message for f in findings]
        assert any("new_knob" in m and "never read" in m for m in messages)

    @pytest.mark.parametrize("as_dict_body", [
        "dict(self.__dict__)",
        '{**self.__dict__, "new_knob": int(self.new_knob)}',
        "dict(vars(self))",
    ])
    def test_dict_copy_covers_every_field(self, tmp_path, as_dict_body):
        assert _rp003_findings(tmp_path, as_dict_body) == []

    @pytest.mark.parametrize("as_dict_body", [
        '{k: v for k, v in self.__dict__.items() if k != "new_knob"}',
        'dict(self.__dict__).pop("new_knob")',
        '{k: v for k, v in vars(self).items() if k not in ("new_knob",)}',
    ])
    def test_field_dropped_from_dict_copy(self, tmp_path, as_dict_body):
        findings = _rp003_findings(tmp_path, as_dict_body)
        assert [(f.message.split()[0]) for f in findings] == [
            "SystemConfig.new_knob"]
        assert "as_dict" in findings[0].message

    def test_real_config_is_fully_covered(self):
        """The dataclass in the tree must satisfy its own rule."""
        root = default_source_root()
        report = lint_paths([root / "repro" / "sim" / "config.py"], root,
                            ["RP003"])
        assert report.findings == []


# ----------------------------------------------------------------------
# RP004: closure-capturing scheduling
# ----------------------------------------------------------------------
class TestRP004:
    def test_positive_lambda_to_schedule(self, tmp_path):
        src = (
            "def f(sim, x):\n"
            "    sim.schedule(5, lambda: x.fire())\n"
        )
        report = lint_source(tmp_path, "repro/sync/fake.py", src,
                             rule_ids=["RP004"])
        assert len(report.findings) == 1

    def test_negative_bound_method_with_args(self, tmp_path):
        src = (
            "def f(sim, x):\n"
            "    sim.schedule(5, x.fire, 1, 2)\n"
            "    sim.schedule_at(9, x.fire)\n"
        )
        report = lint_source(tmp_path, "repro/sync/fake.py", src,
                             rule_ids=["RP004"])
        assert report.findings == []


# ----------------------------------------------------------------------
# RP005: observer purity
# ----------------------------------------------------------------------
class TestRP005:
    def test_positive_physics_write_from_telemetry(self, tmp_path):
        src = (
            "def export(stats):\n"
            "    stats.cache_hits = 0\n"
        )
        report = lint_source(tmp_path, "repro/telemetry.py", src,
                             rule_ids=["RP005"])
        assert len(report.findings) == 1

    def test_positive_extra_write_from_engine(self, tmp_path):
        src = (
            "def account(stats):\n"
            "    stats.extra['spin_retries'] += 1\n"
        )
        report = lint_source(tmp_path, "repro/sim/engine.py", src,
                             rule_ids=["RP005"])
        assert len(report.findings) == 1

    def test_negative_reads_and_own_state(self, tmp_path):
        src = (
            "def export(stats, sink):\n"
            "    sink.total = stats.cache_hits + stats.cache_misses\n"
        )
        report = lint_source(tmp_path, "repro/telemetry.py", src,
                             rule_ids=["RP005"])
        assert report.findings == []

    def test_out_of_scope_component_may_write(self, tmp_path):
        src = "def bump(stats):\n    stats.cache_hits += 1\n"
        report = lint_source(tmp_path, "repro/sim/cache.py", src,
                             rule_ids=["RP005"])
        assert report.findings == []


# ----------------------------------------------------------------------
# RP006: counter-key inventory
# ----------------------------------------------------------------------
class TestRP006:
    def test_positive_typoed_key(self, tmp_path):
        src = (
            "def bump(stats):\n"
            "    stats.extra['bakey_polls'] += 1\n"
        )
        report = lint_source(tmp_path, "repro/sync/fake.py", src,
                             rule_ids=["RP006"])
        assert len(report.findings) == 1
        assert "not declared" in report.findings[0].message

    def test_positive_non_literal_key(self, tmp_path):
        src = (
            "def bump(stats, key):\n"
            "    stats.extra[key] += 1\n"
        )
        report = lint_source(tmp_path, "repro/sync/fake.py", src,
                             rule_ids=["RP006"])
        assert len(report.findings) == 1
        assert "non-literal" in report.findings[0].message

    def test_negative_declared_key(self, tmp_path):
        src = (
            "def bump(stats):\n"
            "    stats.extra['spin_retries'] += 1\n"
        )
        report = lint_source(tmp_path, "repro/sync/fake.py", src,
                             rule_ids=["RP006"])
        assert report.findings == []

    def test_inventory_covers_every_bump_site_in_tree(self):
        """Meta-check: the declared inventory matches actual usage."""
        report = lint_package(rule_ids=["RP006"])
        assert report.findings == []


# ----------------------------------------------------------------------
# Engine plumbing
# ----------------------------------------------------------------------
class TestEngine:
    def test_unknown_rule_rejected(self, tmp_path):
        with pytest.raises(LintError):
            lint_source(tmp_path, "repro/sim/fake.py", "x = 1\n",
                        rule_ids=["RP999"])

    def test_unparsable_file_is_an_error(self, tmp_path):
        with pytest.raises(LintError):
            lint_source(tmp_path, "repro/sim/fake.py", "def broken(:\n")

    def test_registry_has_all_six_rules(self):
        assert sorted(RULES) == ["RP001", "RP002", "RP003",
                                 "RP004", "RP005", "RP006"]

    def test_noqa_map_parses_rule_lists(self):
        lines = [
            "x = 1  # repro: noqa",
            "y = 2  # repro: noqa RP001, RP003",
            "z = 3",
        ]
        m = noqa_map(lines)
        assert m[1] is None
        assert m[2] == frozenset({"RP001", "RP003"})
        assert 3 not in m

    def test_fingerprint_survives_line_drift(self, tmp_path):
        src = "import time\ndef f():\n    return time.time()\n"
        drifted = "import time\n\n\ndef f():\n    return time.time()\n"
        first = lint_source(tmp_path, "repro/sim/fake.py", src,
                            rule_ids=["RP001"])
        baseline = {f.fingerprint(): "" for f in first.findings}
        second = lint_source(tmp_path, "repro/sim/fake.py", drifted,
                             rule_ids=["RP001"], baseline=baseline)
        assert second.findings == []
        assert len(second.baselined) == 1

    def test_baseline_roundtrip(self, tmp_path):
        src = "import time\ndef f():\n    return time.time()\n"
        report = lint_source(tmp_path, "repro/sim/fake.py", src,
                             rule_ids=["RP001"])
        path = tmp_path / "baseline.json"
        write_baseline(path, report.findings, {})
        loaded = load_baseline(path)
        assert set(loaded) == {f.fingerprint() for f in report.findings}
        assert all(j == "TODO: justify" for j in loaded.values())

    def test_tree_is_clean(self):
        """The acceptance criterion: zero non-baselined findings."""
        report = lint_package()
        assert report.findings == []

    def test_committed_baseline_is_valid_json(self):
        payload = json.loads(default_baseline_path().read_text())
        assert payload["version"] == 1
        for entry in payload["findings"]:
            assert entry.get("justification", "").strip() not in (
                "", "TODO: justify"
            ), f"baseline entry without justification: {entry}"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_lint_clean_tree_exits_zero(self, capsys):
        from repro.cli import main

        assert main(["lint"]) == 0
        assert "lint: clean" in capsys.readouterr().out

    def test_lint_json_format(self, capsys):
        from repro.cli import main

        assert main(["lint", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["clean"] is True
        assert payload["checked_files"] > 50

    def test_lint_rule_selection(self, capsys):
        from repro.cli import main

        assert main(["lint", "--rule", "RP001", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["RP001"]

    def test_lint_output_artifact(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "lint.json"
        assert main(["lint", "--output", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["clean"] is True

    def test_injected_violation_fails_the_gate(self, tmp_path, capsys,
                                               monkeypatch):
        """End-to-end CI-gate property: a fresh violation => exit 1."""
        import shutil

        from repro.cli import main

        root = default_source_root()
        fake_root = tmp_path / "src"
        shutil.copytree(root / "repro", fake_root / "repro")
        bad = fake_root / "repro" / "sim" / "injected.py"
        bad.write_text("import time\nT0 = time.time()\n")
        import repro.analysis.engine as engine_mod

        monkeypatch.setattr(engine_mod, "default_source_root",
                            lambda: fake_root)
        assert main(["lint"]) == 1
        out = capsys.readouterr().out
        assert "RP001" in out and "injected.py" in out
