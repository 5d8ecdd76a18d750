"""Protocol golden digests: every SE-based mechanism × workload × ST size.

Each cell runs one small synchronization workload and compares its
:func:`~repro.harness.golden.physics_digest` with the one committed in
``tests/protocol_digests.json``.  The six primitive microbenchmarks plus
:class:`OpcodeMix` send every opcode an engine has a handler for
(:func:`test_every_handler_dispatches`) through the ST path
(``st_entries=64``) and the overflow paths (``st_entries=1``: the
integrated syncronVar fallback and both MiSAR-style abort variants), on a
2-unit and a 4-unit system, so a change to any handler's behaviour changes
some cell's digest.

Regenerate the file only for an intended physics change::

    PYTHONPATH=src python tests/test_protocol_golden.py
"""

import functools
import json
import os

import pytest

from repro.core import api, protocol
from repro.core.messages import Opcode
from repro.harness.golden import physics_digest
from repro.harness.runner import execute_spec
from repro.harness.specs import RunSpec
from repro.sim.config import ndp_2_5d
from repro.sim.program import Compute
from repro.sim.system import NDPSystem
from repro.sim.trace import MessageTracer
from repro.workloads.base import RunMetrics, Workload, run_workload
from repro.workloads.microbench import PrimitiveMicrobench
from repro.workloads.rwbench import RWLockMicrobench

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "protocol_digests.json")
E2E_DIGESTS = os.path.join(HERE, os.pardir, "e2ebench", "digests.json")


class OpcodeMix(Workload):
    """What the six microbenchmarks never send: within-unit and partial
    (one-level) barriers, two semaphores held at once, so that one ST
    entry overflows, and a condvar broadcast."""

    name = "opcode_mix"

    def __init__(self, rounds: int = 2):
        self.rounds = rounds
        self._done = {"phases": 0, "woken": 0}
        self._cores = 0

    def build(self, system):
        cores = system.cores
        units = system.config.num_units
        # each unit's barrier lives in the next unit, so a full ST
        # redirects its arrivals to that unit's SE
        unit_bars = [system.create_syncvar(unit=(u + 1) % units,
                                           name=f"mix_bar{u}")
                     for u in range(units)]
        per_unit = [sum(1 for c in cores if c.unit_id == u) for u in range(units)]
        partial = system.create_syncvar(unit=units - 1, name="mix_partial")
        parties = len(cores[::2])
        pool = system.create_syncvar(unit=0, name="mix_pool")
        mutex = system.create_syncvar(unit=units - 1, name="mix_mutex")
        lock = system.create_syncvar(unit=0, name="mix_lock")
        cond = system.create_syncvar(unit=0, name="mix_cond")
        done, waiting = self._done, {"count": 0}
        self._cores = len(cores)

        def phases(core, index):
            for _ in range(self.rounds):
                yield Compute(20)
                yield api.barrier_wait_within_unit(unit_bars[core.unit_id],
                                                   per_unit[core.unit_id])
                yield api.sem_wait(pool, 2)
                yield api.sem_wait(mutex, 1)
                yield Compute(10)
                done["phases"] += 1
                yield api.sem_post(mutex)
                yield api.sem_post(pool)
            if index % 2 == 0:
                yield api.barrier_wait_across_units(partial, parties)

        def waiter(core, index):
            yield from phases(core, index)
            yield api.lock_acquire(lock)
            waiting["count"] += 1
            yield api.cond_wait(cond, lock)
            done["woken"] += 1
            yield api.lock_release(lock)

        def broadcaster(core, index):
            yield from phases(core, index)
            while True:
                yield Compute(200)
                yield api.lock_acquire(lock)
                ready = waiting["count"] == len(cores) - 1
                if ready:
                    yield api.cond_broadcast(cond)
                yield api.lock_release(lock)
                if ready:
                    return

        last = len(cores) - 1
        return {core.core_id: (broadcaster if i == last else waiter)(core, i)
                for i, core in enumerate(cores)}

    def verify(self, system):
        assert self._done == {"phases": self.rounds * self._cores,
                              "woken": self._cores - 1}

    def operations(self):
        return self.rounds * self._cores


#: name -> ndp_2_5d overrides (the tiny_config and quad_config fixtures).
CONFIGS = {
    "2u3c": dict(num_units=2, cores_per_unit=4, client_cores_per_unit=3),
    "4u4c": dict(num_units=4, cores_per_unit=5, client_cores_per_unit=4),
}
ST_ENTRIES = (64, 1)
MECHANISMS = ("central", "hier", "syncron", "syncron_flat",
              "syncron_central_ovrfl", "syncron_distrib_ovrfl")
WORKLOADS = {
    "lock": lambda: PrimitiveMicrobench("lock", interval=50, rounds=3),
    "barrier": lambda: PrimitiveMicrobench("barrier", interval=50, rounds=3),
    "semaphore": lambda: PrimitiveMicrobench("semaphore", interval=50,
                                             rounds=3),
    "condvar": lambda: PrimitiveMicrobench("condvar", interval=50, rounds=3),
    "rw50": lambda: RWLockMicrobench(read_pct=50, rounds=3),
    "rw90": lambda: RWLockMicrobench(read_pct=90, rounds=3),
    "mix": OpcodeMix,
}
#: a livelocked cell stops here instead of running forever.
MAX_EVENTS = 200_000

CELLS = [f"{config}/st{st}/{mechanism}/{workload}"
         for config in CONFIGS for st in ST_ENTRIES
         for mechanism in MECHANISMS for workload in WORKLOADS]


def run_cell(cell: str) -> str:
    config, st, mechanism, workload = cell.split("/")
    system_config = ndp_2_5d(**CONFIGS[config]).with_(st_entries=int(st[2:]))
    metrics = run_workload(WORKLOADS[workload], system_config, mechanism,
                           max_events=MAX_EVENTS)
    return physics_digest(metrics)


@pytest.mark.parametrize("mechanism", ["central", "syncron"])
def test_physics_digest_matches_e2ebench(mechanism):
    """The harness digest is the one e2ebench commits for its specs."""
    spec = RunSpec.make("app", mechanism=mechanism, args={"combo": "tc.sx"},
                        seed=0)
    record = execute_spec(spec)
    with open(E2E_DIGESTS) as fh:
        committed = json.load(fh)["apps"]["0"][spec.describe()]
    assert physics_digest(RunMetrics.from_dict(record["result"])) == committed


def test_master_forwards_carry_the_core_only_where_they_did():
    """The message trace records each message's core: a forward to the
    Master SE carries it for the rw-lock requests and for nothing else."""
    carries = {
        Opcode.SEM_POST_GLOBAL: False,
        Opcode.COND_SIGNAL_GLOBAL: False,
        Opcode.COND_BROAD_GLOBAL: False,
        Opcode.RW_READ_ACQUIRE_GLOBAL: True,
        Opcode.RW_WRITE_ACQUIRE_GLOBAL: True,
        Opcode.RW_READ_RELEASE_GLOBAL: True,
        Opcode.RW_WRITE_RELEASE_GLOBAL: True,
    }
    seen = {}
    for workload in (WORKLOADS["rw50"](), WORKLOADS["mix"](),
                     WORKLOADS["condvar"]()):
        system = NDPSystem(ndp_2_5d(**CONFIGS["4u4c"]), mechanism="syncron")
        tracer = MessageTracer(system)
        workload.run(system)
        for record in tracer.records:
            opcode = Opcode[record.opcode]
            if opcode in carries:
                seen.setdefault(opcode, set()).add(record.core is not None)
    assert seen == {opcode: {carry} for opcode, carry in carries.items()}


@functools.lru_cache(maxsize=None)
def _committed():
    with open(DIGESTS) as fh:
        return json.load(fh)


def test_every_cell_is_committed():
    assert sorted(_committed()) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_protocol_digest(cell):
    assert run_cell(cell) == _committed()[cell]


def test_every_handler_dispatches(monkeypatch):
    """Every opcode in the handler table is dispatched by some cell, so
    none is dead and a change to any of them moves a digest."""
    dispatched = set()

    def counted(opcode, handler):
        def record(engine, msg):
            dispatched.add(opcode)
            handler(engine, msg)
        return record

    for opcode, handler in list(protocol._HANDLERS.items()):
        monkeypatch.setitem(protocol._HANDLERS, opcode,
                            counted(opcode, handler))
    for cell in CELLS:
        run_cell(cell)
    assert set(protocol._HANDLERS) - dispatched == set()


if __name__ == "__main__":
    with open(DIGESTS, "w") as out:
        json.dump({cell: run_cell(cell) for cell in CELLS}, out, indent=1,
                  sort_keys=True)
        out.write("\n")
