"""Property-based cross-mechanism equivalence.

Hypothesis generates structured random programs (lock-protected critical
sections, rw-lock sections, compute gaps) and every mechanism
must produce the *same functional outcome* — same final counters, no
exclusion violations — even though their timing differs by orders of
magnitude.  A protocol bug that double-grants, drops a grant, or loses an
update cannot hide: some generated schedule will expose it as a divergence.

Also checks the overflow path specifically: SynCron with a 1-entry ST must
behave identically (functionally) to SynCron with a roomy ST.
"""

from hypothesis import given, settings, strategies as st

from repro.core import api
from repro.sim.config import ndp_2_5d
from repro.sim.program import Compute
from repro.sim.system import NDPSystem

#: mechanisms compared for functional equivalence (bakery excluded only
#: for speed; its semantics are covered in test_spin_baselines.py).
MECHANISMS = ("syncron", "syncron_flat", "central", "hier", "ideal", "rmw_spin")

CONFIG = ndp_2_5d(num_units=2, cores_per_unit=4, client_cores_per_unit=3)


#: one program step: (kind, variable index, section length, gap length).
step_strategy = st.tuples(
    st.sampled_from(("lock", "rw_read", "rw_write")),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=60),
)

#: per-core sequences of steps; cores may have different lengths.
program_strategy = st.lists(
    st.lists(step_strategy, min_size=1, max_size=5),
    min_size=1, max_size=6,
)


def run_spec(mechanism: str, spec, st_entries: int = 64):
    """Execute one generated spec; returns the functional outcome."""
    config = CONFIG.with_(st_entries=st_entries)
    system = NDPSystem(config, mechanism=mechanism)
    locks = [system.create_syncvar(name=f"l{i}") for i in range(3)]
    rwlocks = [system.create_syncvar(name=f"rw{i}") for i in range(3)]

    counters = [0] * 3
    rw_counts = [0] * 3
    guards = {"lock": [0] * 3, "writer": [0] * 3, "readers": [0] * 3,
              "violations": 0}

    def worker(steps):
        for kind, var, section, gap in steps:
            if gap:
                yield Compute(gap)
            if kind == "lock":
                yield api.lock_acquire(locks[var])
                guards["lock"][var] += 1
                if guards["lock"][var] > 1:
                    guards["violations"] += 1
                counters[var] += 1
                if section:
                    yield Compute(section)
                guards["lock"][var] -= 1
                yield api.lock_release(locks[var])
            elif kind == "rw_read":
                yield api.rw_read_acquire(rwlocks[var])
                guards["readers"][var] += 1
                if guards["writer"][var]:
                    guards["violations"] += 1
                if section:
                    yield Compute(section)
                guards["readers"][var] -= 1
                rw_counts[var] += 1
                yield api.rw_read_release(rwlocks[var])
            else:  # rw_write
                yield api.rw_write_acquire(rwlocks[var])
                guards["writer"][var] += 1
                if guards["writer"][var] > 1 or guards["readers"][var]:
                    guards["violations"] += 1
                rw_counts[var] += 1
                if section:
                    yield Compute(section)
                guards["writer"][var] -= 1
                yield api.rw_write_release(rwlocks[var])

    cores = system.cores
    programs = {
        cores[i].core_id: worker(steps)
        for i, steps in enumerate(spec[: len(cores)])
    }
    makespan = system.run_programs(programs)
    return {
        "counters": counters,
        "rw_counts": rw_counts,
        "violations": guards["violations"],
        "makespan": makespan,
    }


@settings(max_examples=12, deadline=None)
@given(spec=program_strategy)
def test_all_mechanisms_agree_functionally(spec):
    reference = run_spec("ideal", spec)
    assert reference["violations"] == 0
    for mechanism in MECHANISMS:
        if mechanism == "ideal":
            continue
        outcome = run_spec(mechanism, spec)
        assert outcome["violations"] == 0, mechanism
        assert outcome["counters"] == reference["counters"], mechanism
        assert outcome["rw_counts"] == reference["rw_counts"], mechanism


@settings(max_examples=10, deadline=None)
@given(spec=program_strategy)
def test_overflow_path_is_functionally_invisible(spec):
    """A 1-entry ST forces nearly every request through the syncronVar
    memory path; outcomes must match the roomy-ST run exactly."""
    roomy = run_spec("syncron", spec, st_entries=64)
    tight = run_spec("syncron", spec, st_entries=1)
    assert tight["violations"] == 0
    assert tight["counters"] == roomy["counters"]
    assert tight["rw_counts"] == roomy["rw_counts"]


@settings(max_examples=8, deadline=None)
@given(spec=program_strategy, threads=st.sampled_from((2, 3)))
def test_smt_contexts_preserve_outcomes(spec, threads):
    """The same spec distributed over hardware thread contexts (sharing
    pipelines and L1s) must still produce the expected outcome."""
    config = CONFIG.with_(threads_per_core=threads)
    system = NDPSystem(config, mechanism="syncron")
    locks = [system.create_syncvar(name=f"l{i}") for i in range(3)]
    counters = [0] * 3
    inside = [0] * 3
    violations = [0]

    def worker(steps):
        for kind, var, section, gap in steps:
            if gap:
                yield Compute(gap)
            # Collapse every step kind to a lock section: the property
            # under test is grant correctness across contexts.
            yield api.lock_acquire(locks[var])
            inside[var] += 1
            if inside[var] > 1:
                violations[0] += 1
            counters[var] += 1
            if section:
                yield Compute(section)
            inside[var] -= 1
            yield api.lock_release(locks[var])

    cores = system.cores
    programs = {
        cores[i].core_id: worker(steps)
        for i, steps in enumerate(spec[: len(cores)])
    }
    system.run_programs(programs)
    assert violations[0] == 0
    expected = [0] * 3
    for steps in spec[: len(cores)]:
        for _kind, var, _section, _gap in steps:
            expected[var] += 1
    assert counters == expected
