"""Experiment plans: every registered experiment declares its runs up front.

A plan returns ``(specs, render)`` without simulating anything, so these
tests patch the runner's one simulation entry point to fail loudly.
"""

import inspect

import pytest

from repro.cli import _plan_kwargs, _takes_sequence
from repro.harness import runner
from repro.harness.registry import EXPERIMENTS, find
from repro.harness.specs import RunSpec
from repro.workloads.datastructures import ALL_STRUCTURES
from repro.workloads.microbench import PRIMITIVES

#: the required parameter of each plan that has one, and every ``--arg``
#: value to try.
REQUIRED = {"fig10": ("primitive", PRIMITIVES),
            "fig11": ("structure", tuple(ALL_STRUCTURES)),
            "sweep": ("workloads", ("lock", "bfs.wk", "stack"))}


@pytest.fixture
def no_simulation(monkeypatch):
    def refuse(spec):
        raise AssertionError(f"planning simulated {spec.describe()}")

    monkeypatch.setattr(runner, "execute_spec", refuse)


def _plan_calls():
    for experiment in EXPERIMENTS:
        if experiment.name in REQUIRED:
            key, values = REQUIRED[experiment.name]
            for value in values:
                yield pytest.param(experiment, [f"{key}={value}"],
                                   id=f"{experiment.name}-{value}")
        else:
            yield pytest.param(experiment, [], id=experiment.name)


class TestPlansNeverSimulate:
    @pytest.mark.parametrize("experiment,items", list(_plan_calls()))
    def test_plan_returns_specs_and_render(self, experiment, items,
                                           no_simulation):
        specs, render = experiment.plan(
            **_plan_kwargs(experiment.name, experiment.plan, items))
        assert isinstance(specs, tuple) and specs
        assert all(isinstance(spec, RunSpec) for spec in specs)
        assert callable(render)

    def test_fig12_plans_every_combo_under_every_mechanism(self, no_simulation):
        specs, _render = find("fig12").plan()
        assert len(specs) == 104  # 26 combos x 4 mechanisms
        assert len(set(specs)) == 104

    def test_degradation_plans_its_fabric_probes(self, no_simulation):
        specs, _render = find("degradation").plan()
        probes = [spec for spec in specs if spec.workload == "fabric_probe"]
        assert len(probes) == 2 * 4  # topologies x severities
        assert len(specs) == len(probes) * 3  # plus central + syncron runs


#: ``--arg`` text for sequence parameters whose default is no tuple of
#: scalars, and the extra items that make such a value plannable.
FALLBACK = {"intervals": "200", "combos": "bfs.wk", "groups": "lock+barrier",
            "unit_split": "1", "core_split": "3", "workloads": "lock"}
EXTRA = {"unit_split": ["groups=lock"], "core_split": ["groups=lock"]}


def _sequence_params():
    for experiment in EXPERIMENTS:
        for param in inspect.signature(experiment.plan).parameters.values():
            if _takes_sequence(param):
                yield pytest.param(experiment, param,
                                   id=f"{experiment.name}-{param.name}")


class TestScalarArgCoercion:
    @pytest.mark.parametrize("experiment,param", list(_sequence_params()))
    def test_scalar_becomes_a_one_tuple(self, experiment, param,
                                        no_simulation):
        default = param.default
        if isinstance(default, tuple) and isinstance(default[0], (str, int, float)):
            text = str(default[0])
        else:
            text = FALLBACK[param.name]
        items = [f"{param.name}={text}", *EXTRA.get(param.name, [])]
        if experiment.name in REQUIRED:
            key, values = REQUIRED[experiment.name]
            items.append(f"{key}={values[0]}")
        kwargs = _plan_kwargs(experiment.name, experiment.plan, items)
        assert isinstance(kwargs[param.name], tuple)
        assert len(kwargs[param.name]) == 1
        specs, _render = experiment.plan(**kwargs)
        assert specs

    def test_known_sequence_parameters_are_covered(self):
        found = {(p.values[0].name, p.values[1].name)
                 for p in _sequence_params()}
        # the scalar --arg crashes once reported, and the Optional ones
        # whose default (None) is no tuple
        assert {("ext_rwlock", "read_pcts"), ("ext_fairness", "thresholds"),
                ("ext_smt", "thread_counts"), ("ext_se_knee", "se_cycles"),
                ("ext_overflow", "targets"), ("fig10", "intervals"),
                ("fig20", "combos"), ("interference", "unit_split"),
                ("interference", "core_split")} <= found
