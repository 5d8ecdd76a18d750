"""The per-request path op -> core -> mechanism -> SE queue -> ST -> fabric,
against references that do each step the long way.

- **Occupancy.**  An SE samples its ST's occupancy once per message it
  serves; the ST folds those samples per allocate/release and when
  ``run_programs`` returns.  The integrals must equal sampling ``len(st)``
  before every ``dispatch``.
- **Server fold.**  A software server's ``server_handler_accesses`` state
  accesses are one :meth:`MemorySystem.access` plus L1 hits booked in one
  step; they must equal that many separate ``access`` calls in latency,
  counters, cache state and the line's later write-back.
- **Intake loop.**  :func:`repro.testing.queued_intake` patches in the
  queue -> ``_start_next`` -> ``_finish`` loop with per-message occupancy
  sampling; whole runs must match it in every metric and event count.
- **Op vocabulary.**  Ops are slotted value objects that still validate.
"""

import pytest

from repro.core.messages import Message, Opcode
from repro.core.sync_table import STEntry, SynchronizationTable
from repro.harness.specs import RunSpec
from repro.sim.config import ndp_2_5d
from repro.sim.program import (
    LOCK_ACQUIRE, LOCK_RELEASE, Batch, Compute, Load, Store, SyncAsyncOp,
    SyncOp, batch)
from repro.sim.stats import SystemStats
from repro.sim.syncif import SyncVar
from repro.sim.system import NDPSystem
from repro.testing import (
    build_system, engines, fabric_snapshot, queued_intake)


def spec(workload, mechanism, overrides=None, **args):
    return RunSpec.make(workload, mechanism=mechanism, args=args,
                        overrides=overrides or {}, seed=0)


# ----------------------------------------------------------------------
# (a) Occupancy: per-ST folds vs sampling before every message
# ----------------------------------------------------------------------
OCCUPANCY_SPECS = {
    "syncron_overflow": spec("structure", "syncron", {"st_entries": 8},
                             structure="hashtable"),
    "syncron_overflow_list": spec("structure", "syncron", {"st_entries": 8},
                                  structure="linkedlist"),
    "syncron_condvar": spec("primitive", "syncron", primitive="condvar",
                            interval=200, rounds=5),
    "hier": spec("structure", "hier", structure="stack"),
    "central": spec("app", "central", combo="bfs.wk"),
    "flat": spec("structure", "syncron_flat", structure="hashtable"),
}


def sample_per_message(system):
    """Wrap every engine's ``dispatch`` to sample ``len(st)`` first;
    returns {se_id: [max, sum, samples]}, filled as the run goes."""
    samples = {}

    def wrap(se):
        dispatch = se.dispatch

        def sampled(msg):
            occupied = len(se.st)
            entry = samples.setdefault(se.se_id, [0, 0, 0])
            entry[0] = max(entry[0], occupied)
            entry[1] += occupied
            entry[2] += 1
            dispatch(msg)

        se.dispatch = sampled

    for se in engines(system):
        wrap(se)
    return samples


@pytest.mark.parametrize("name", sorted(OCCUPANCY_SPECS))
def test_occupancy_equals_per_message_sampling(name):
    run = OCCUPANCY_SPECS[name]
    config = run.config()
    system = NDPSystem(config, mechanism=run.mechanism)
    reference = sample_per_message(system)
    workload = run.build_workload()
    system.run_programs(workload.build(system))

    # Straight after run_programs: nothing left unfolded, views are right.
    assert all(table.unsampled == 0 for table in system.mechanism.tables)
    stats = system.stats
    width = max(reference) + 1
    expected = [reference.get(se_id, [0, 0, 0]) for se_id in range(width)]
    assert stats._occ_max == [e[0] for e in expected]
    assert stats._occ_sum == [e[1] for e in expected]
    assert stats._occ_samples == [e[2] for e in expected]
    assert stats.st_occupancy_max == {
        se_id: e[0] for se_id, e in enumerate(expected) if e[0] > 0}
    total = sum(e[2] for e in expected)
    assert total > 0
    entries = config.st_entries
    assert stats.st_occupancy_summary(entries) == {
        "max_pct": 100.0 * max(e[0] for e in expected) / entries,
        "avg_pct": 100.0 * (sum(e[1] for e in expected) / total) / entries,
    }
    if name.startswith("syncron_overflow"):
        assert max(e[0] for e in expected) == entries


def test_fold_books_pending_samples_before_each_change():
    stats = SystemStats()
    table = SynchronizationTable(4, stats, se_id=2)
    table.unsampled = 3                   # three messages at occupancy 0
    table.allocate(SyncVar(addr=0, unit=0))
    table.unsampled = 2                   # two at occupancy 1
    table.allocate(SyncVar(addr=64, unit=0))
    table.release(0)                      # no messages at occupancy 2
    table.unsampled = 4                   # four at occupancy 1
    table.flush_occupancy()
    table.flush_occupancy()               # idempotent
    assert stats._occ_max == [0, 0, 1]
    assert stats._occ_sum == [0, 0, 2 * 1 + 4 * 1]
    assert stats._occ_samples == [0, 0, 9]
    assert table.unsampled == 0


def test_record_st_occupancy_samples_count():
    one_by_one, folded = SystemStats(), SystemStats()
    for _ in range(5):
        one_by_one.record_st_occupancy(1, 7)
    folded.record_st_occupancy(1, 7, samples=5)
    assert (folded._occ_max, folded._occ_sum, folded._occ_samples) == (
        one_by_one._occ_max, one_by_one._occ_sum, one_by_one._occ_samples)


# ----------------------------------------------------------------------
# (b) Server state accesses: one access + folded hits vs separate accesses
# ----------------------------------------------------------------------
def separate_accesses(server, var):
    """The handler's accesses one ``MemorySystem.access`` call each."""
    addr = server._state_address(var)
    accesses = server.config.server_handler_accesses
    for i in range(accesses):
        server._extra += server.mech.memsys.access(
            server.unit, server.l1, addr, is_write=(i == accesses - 1),
            cacheable=True, now=server.sim.now + server._extra, for_sync=True)


def l1_state(l1):
    return sorted((idx, list(cset.items())) for idx, cset in l1._sets.items())


def server_pair(mechanism, accesses, scenario):
    """Two identical systems with a one-line server L1 and the state line
    warmed / cold / behind a dirty line, per ``scenario``.  Returns [(system, server, var, other_addr)] for each."""
    config = ndp_2_5d(num_units=2, cores_per_unit=4, client_cores_per_unit=3,
                      l1_size_bytes=64, l1_ways=1,
                      server_handler_accesses=accesses)
    pair = []
    for _ in range(2):
        system = build_system(config, mechanism)
        server = system.mechanism.ses[0]
        var = system.create_syncvar(unit=1)
        other = system.addrmap.alloc_line(0)
        memsys = system.memsys
        addr = server._state_address(var)
        if scenario == "hit":
            memsys.access(server.unit, server.l1, addr, False, True, now=0)
        elif scenario == "dirty_miss":
            memsys.access(server.unit, server.l1, other, True, True, now=0)
        server._extra = 0
        pair.append((system, server, var, other))
    return pair


@pytest.mark.parametrize("scenario", ["hit", "clean_miss", "dirty_miss"])
@pytest.mark.parametrize("accesses", [0, 1, 2, 3])
@pytest.mark.parametrize("mechanism", ["central", "hier"])
def test_server_fold_equals_separate_accesses(mechanism, accesses, scenario):
    (fused, f_server, f_var, f_other), (ref, r_server, r_var, r_other) = (
        server_pair(mechanism, accesses, scenario))
    hits0, misses0 = fused.stats.cache_hits, fused.stats.cache_misses
    f_server._charge_state_access(f_var)
    separate_accesses(r_server, r_var)
    assert f_server._extra == r_server._extra
    assert l1_state(f_server.l1) == l1_state(r_server.l1)
    assert fabric_snapshot(fused) == fabric_snapshot(ref)
    for system in (fused, ref):
        assert system.stats.sync_memory_accesses == accesses
    if accesses:
        hit = scenario == "hit"
        assert fused.stats.cache_hits - hits0 == accesses - (0 if hit else 1)
        assert fused.stats.cache_misses - misses0 == (0 if hit else 1)

    # Evicting the state line writes it back iff the handler dirtied it.
    dram_writes = ref.stats.dram_writes
    for system, server, other in ((fused, f_server, f_other),
                                  (ref, r_server, r_other)):
        system.memsys.access(server.unit, server.l1, other, False, True,
                             now=10_000)
    assert fabric_snapshot(fused) == fabric_snapshot(ref)
    assert l1_state(f_server.l1) == l1_state(r_server.l1)
    assert ref.stats.dram_writes == dram_writes + (1 if accesses else 0)


# ----------------------------------------------------------------------
# (c) Whole runs: the engine's intake loop vs the queued reference loop
# ----------------------------------------------------------------------
INTAKE_SPECS = {
    "syncron_stack": spec("structure", "syncron", structure="stack"),
    "syncron_overflow": spec("structure", "syncron", {"st_entries": 8},
                             structure="hashtable"),
    "syncron_condvar": spec("primitive", "syncron", primitive="condvar",
                            interval=200, rounds=5),
    "syncron_app": spec("app", "syncron", combo="tc.sx"),
    "distrib_ovrfl": spec("structure", "syncron_distrib_ovrfl",
                          {"st_entries": 8}, structure="hashtable"),
    "hier_stack": spec("structure", "hier", structure="stack"),
    "hier_barrier": spec("primitive", "hier", primitive="barrier",
                         interval=200, rounds=5),
    "hier_app": spec("app", "hier", combo="tc.sx"),
    "central_app": spec("app", "central", combo="bfs.wk"),
    "central_semaphore": spec("primitive", "central", primitive="semaphore",
                              interval=200, rounds=5),
}


def run_spec(run, reference):
    system = NDPSystem(run.config(), mechanism=run.mechanism)
    if reference:
        queued_intake(system)
    metrics = run.build_workload().run(system)
    return metrics.as_dict(), system.sim.events_processed


@pytest.mark.parametrize("name", sorted(INTAKE_SPECS))
def test_intake_loop_equals_queued_reference(name):
    run = INTAKE_SPECS[name]
    metrics, events = run_spec(run, reference=False)
    ref_metrics, ref_events = run_spec(run, reference=True)
    assert events == ref_events
    assert metrics == ref_metrics


# ----------------------------------------------------------------------
# Op vocabulary: slotted value objects that still validate
# ----------------------------------------------------------------------
VAR = SyncVar(addr=0x40, unit=0, name="lock")

OPS = [
    Compute(3),
    Load(0x80),
    Store(0x80, size=16, cacheable=False),
    batch(Load(0x80), Compute(2)),
    SyncOp(LOCK_ACQUIRE, VAR),
    SyncAsyncOp(LOCK_RELEASE, VAR, info=1),
]


@pytest.mark.parametrize(
    "obj", OPS + [Message(Opcode.LOCK_ACQUIRE_LOCAL, VAR, core=0),
                  STEntry(addr=0, var=None)],
    ids=lambda obj: type(obj).__name__)
def test_per_request_objects_are_slotted(obj):
    assert not hasattr(obj, "__dict__")
    assert "__slots__" in type(obj).__dict__


@pytest.mark.parametrize("op", OPS, ids=lambda op: type(op).__name__)
def test_ops_compare_and_hash_by_value(op):
    twin = type(op)(*(getattr(op, name) for name in type(op).__slots__))
    assert twin is not op
    assert twin == op
    assert hash(twin) == hash(op)
    assert len({op, twin}) == 1


def test_ops_of_different_kinds_differ():
    assert Load(0x80) != Store(0x80)
    assert SyncOp(LOCK_RELEASE, VAR) != SyncAsyncOp(LOCK_RELEASE, VAR)
    assert Compute(3) != Compute(4)


@pytest.mark.parametrize("build, error", [
    (lambda: Compute(-1), ValueError),
    (lambda: SyncOp("lock_grab", VAR), ValueError),
    (lambda: SyncAsyncOp(LOCK_ACQUIRE, VAR), ValueError),
    (lambda: Batch((Load(0), SyncOp(LOCK_ACQUIRE, VAR))), TypeError),
    (lambda: batch(SyncOp(LOCK_RELEASE, VAR)), TypeError),
], ids=["compute", "sync_op", "async_acquire", "batch_sync", "batch_helper"])
def test_op_validation_still_raises(build, error):
    with pytest.raises(error):
        build()
