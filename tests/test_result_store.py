"""Content-addressed result store: backends, leases, concurrency, crashes.

The multi-process tests here pin the store's core guarantees: concurrent
writers on one store never lose or tear an entry (the first
durable write wins and later writers verify bit-identity), and a worker
killed mid-claim only delays its specs until the lease expires — a
survivor reclaims and completes them with a result set identical to the
single-worker run.
"""

import hashlib
import json
import multiprocessing
import os
import stat
import time

import pytest

from repro.cli import main
from repro.harness import runner as runner_mod
from repro.harness.runner import drain, run_specs
from repro.harness.specs import CACHE_FORMAT_VERSION, RunSpec
from repro.harness.store import (
    LeaseBoard,
    ShardedDirStore,
    StoreError,
    StoreIntegrityError,
    open_store,
    payload_digest,
)


def _key(tag: str) -> str:
    return hashlib.sha256(tag.encode()).hexdigest()


def _body(value: int) -> dict:
    return {"kind": "row", "result": {"cycles": value}, "spec": f"row({value})"}


def _specs(mechs=("central", "syncron", "ideal")):
    return [
        RunSpec.make("primitive", mech,
                     args={"primitive": "lock", "interval": 100, "rounds": 3})
        for mech in mechs
    ]


# ----------------------------------------------------------------------
# Store contract, through one handle and as cooperating processes see it
# ----------------------------------------------------------------------
class _DiskReads(ShardedDirStore):
    """Every read goes to disk, never to this handle's in-process memo —
    the view another process sharing the store root has."""

    def get(self, key):
        self._memo.clear()
        return super().get(key)


@pytest.fixture(params=["dir", "shared"])
def store(request, tmp_path):
    cls = ShardedDirStore if request.param == "dir" else _DiskReads
    return cls(tmp_path / "store")


class TestStoreContract:
    def test_roundtrip_and_contains(self, store):
        key = _key("a")
        assert store.get(key) is None
        record = store.put(key, _body(7))
        assert record["result"] == {"cycles": 7}
        assert record["version"] == CACHE_FORMAT_VERSION
        assert store.get(key)["result"] == {"cycles": 7}
        assert key in store and _key("b") not in store
        assert list(store.keys()) == [key]
        assert len(store) == 1

    def test_first_durable_write_wins_identical(self, store):
        key = _key("a")
        first = store.put(key, _body(7))
        again = store.put(key, _body(7))  # duplicate completion
        assert again == first

    def test_duplicate_completion_must_be_bit_identical(self, store):
        key = _key("a")
        store.put(key, _body(7))
        with pytest.raises(StoreIntegrityError):
            store.put(key, _body(8))
        # the winner survives the attempted divergent write
        assert store.get(key)["result"] == {"cycles": 7}

    def test_discard_then_put_new_content(self, store):
        key = _key("a")
        store.put(key, _body(7))
        store.discard(key)
        assert store.get(key) is None
        assert store.put(key, _body(8))["result"] == {"cycles": 8}

    def test_bad_keys_rejected(self, store):
        for bad in ("", "short", "../../evil", "ZZ" * 32, 7):
            with pytest.raises(StoreError):
                store.get(bad)

    def test_verify_clean_store(self, store):
        store.put(_key("a"), _body(1))
        store.put(_key("b"), _body(2))
        report = store.verify()
        assert report["ok"] == 2 and report["corrupt"] == []


# ----------------------------------------------------------------------
# Sharded-directory specifics: layout, quarantine, verify, gc
# ----------------------------------------------------------------------
class TestShardedDir:
    def test_hash_prefix_fanout(self, tmp_path):
        store = ShardedDirStore(tmp_path)
        key = _key("a")
        store.put(key, _body(1))
        path = store.path_for(key)
        assert path.exists()
        assert path.parent.name == key[:2]
        assert json.loads(path.read_text())["digest"]

    def test_corrupt_entry_quarantined_not_lost(self, tmp_path):
        store = ShardedDirStore(tmp_path)
        key = _key("a")
        store.put(key, _body(1))
        path = store.path_for(key)
        path.write_text("{torn")
        fresh = ShardedDirStore(tmp_path)
        assert fresh.get(key) is None
        quarantined = list((tmp_path / "quarantine").iterdir())
        assert [p.name for p in quarantined] == [path.name]
        assert quarantined[0].read_text() == "{torn"

    def test_tampered_payload_fails_the_rehash(self, tmp_path):
        store = ShardedDirStore(tmp_path)
        key = _key("a")
        store.put(key, _body(1))
        path = store.path_for(key)
        record = json.loads(path.read_text())
        record["result"]["cycles"] = 999  # digest now lies
        path.write_text(json.dumps(record))
        report = ShardedDirStore(tmp_path).verify()
        assert report["corrupt"] == [key]
        assert not path.exists()  # quarantined

    def test_gc_drops_stale_version_entries(self, tmp_path):
        store = ShardedDirStore(tmp_path)
        old_key, new_key = _key("old"), _key("new")
        store.put(old_key, _body(1))
        store.put(new_key, _body(2))
        path = store.path_for(old_key)
        record = json.loads(path.read_text())
        record["version"] = CACHE_FORMAT_VERSION - 1
        path.write_text(json.dumps(record))
        fresh = ShardedDirStore(tmp_path)
        assert fresh.get(old_key) is None  # stale, but kept on disk
        assert path.exists()
        report = fresh.gc()
        assert report["stale_removed"] == 1
        assert not path.exists()
        assert fresh.get(new_key) is not None

    def test_gc_reaps_abandoned_tmp_files(self, tmp_path):
        store = ShardedDirStore(tmp_path)
        store.put(_key("a"), _body(1))
        shard = store.path_for(_key("a")).parent
        orphan = shard / ".tmp-dead"
        orphan.write_text("partial")
        old = time.time() - 2 * ShardedDirStore.TMP_MAX_AGE_SECONDS
        os.utime(orphan, (old, old))
        fresh_tmp = shard / ".tmp-live"
        fresh_tmp.write_text("inflight")
        report = store.gc()
        assert report["tmp_removed"] == 1
        assert not orphan.exists() and fresh_tmp.exists()

    def test_stats_shape(self, tmp_path):
        store = ShardedDirStore(tmp_path)
        for tag in ("a", "b", "c"):
            store.put(_key(tag), _body(1))
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["backend"] == "dir"
        assert stats["bytes"] > 0
        assert 1 <= stats["shards"] <= 3
        assert stats["quarantined"] == 0 and stats["leases"] == 0

    def test_put_fsyncs_the_shard_directory(self, tmp_path, monkeypatch):
        store = ShardedDirStore(tmp_path)
        key = _key("a")
        synced = []
        real_fsync = os.fsync

        def recording_fsync(fd):
            info = os.fstat(fd)
            if stat.S_ISDIR(info.st_mode):
                synced.append((info.st_dev, info.st_ino))
            return real_fsync(fd)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        store.put(key, _body(1))
        shard = os.stat(store.path_for(key).parent)
        assert (shard.st_dev, shard.st_ino) in synced

    def test_put_flocks_the_shard(self, tmp_path, monkeypatch):
        fcntl = pytest.importorskip("fcntl")
        store = ShardedDirStore(tmp_path)
        key = _key("a")
        locked = []
        real_flock = fcntl.flock

        def recording_flock(fd, operation):
            if operation == fcntl.LOCK_EX:
                locked.append(os.fstat(fd).st_ino)
            return real_flock(fd, operation)

        monkeypatch.setattr(fcntl, "flock", recording_flock)
        store.put(key, _body(1))
        lock = tmp_path / "locks" / f"{key[:2]}.lock"
        assert locked == [os.stat(lock).st_ino]


# ----------------------------------------------------------------------
# Lease board protocol
# ----------------------------------------------------------------------
class TestLeaseBoard:
    def test_claim_is_exclusive_until_released(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=30)
        key = _key("a")
        lease = board.claim(key, "w1")
        assert lease.generation == 1 and not lease.reclaimed
        assert board.claim(key, "w2") is None
        assert board.active() == 1
        board.release(key)
        assert board.active() == 0
        assert board.claim(key, "w2").generation == 1

    def test_expired_lease_is_reclaimed_next_generation(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=0.05)
        key = _key("a")
        board.claim(key, "crashy")
        time.sleep(0.06)
        lease = LeaseBoard(tmp_path, ttl=30).claim(key, "survivor")
        assert lease is not None
        assert lease.generation == 2 and lease.reclaimed

    def test_sweep_removes_only_expired(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=0.01)
        board.claim(_key("dead"), "w")
        LeaseBoard(tmp_path, ttl=60).claim(_key("live"), "w")
        time.sleep(0.02)
        assert board.sweep() == 1
        assert board.active() == 1

    def test_independent_keys_do_not_interfere(self, tmp_path):
        board = LeaseBoard(tmp_path, ttl=30)
        assert board.claim(_key("a"), "w1") is not None
        assert board.claim(_key("b"), "w2") is not None


# ----------------------------------------------------------------------
# open_store / url parsing
# ----------------------------------------------------------------------
class TestOpenStore:
    def test_schemes(self, tmp_path):
        store = open_store(f"dir:{tmp_path}")
        assert isinstance(store, ShardedDirStore)
        assert store.root == tmp_path
        for retired in ("memory:", f"shared:{tmp_path}"):
            with pytest.raises(StoreError, match="unknown store scheme"):
                open_store(retired)

    def test_bare_path_is_a_dir_store(self, tmp_path):
        store = open_store(str(tmp_path))
        assert isinstance(store, ShardedDirStore)
        assert store.root == tmp_path

    def test_errors(self):
        with pytest.raises(StoreError):
            open_store("kafka:broker")
        with pytest.raises(StoreError):
            open_store("")
        with pytest.raises(StoreError):
            open_store("dir:")


# ----------------------------------------------------------------------
# Concurrent writers (satellite: no lost or torn entries)
# ----------------------------------------------------------------------
def _writer_proc(root, items, barrier):
    store = ShardedDirStore(root)
    barrier.wait()
    for key, body in items:
        store.put(key, body)


class TestConcurrentWriters:
    def test_two_processes_same_and_different_keys(self, tmp_path):
        root = tmp_path / "store"
        shared_keys = [_key(f"shared{i}") for i in range(4)]
        own_a = [_key(f"a{i}") for i in range(3)]
        own_b = [_key(f"b{i}") for i in range(3)]
        # contended keys get IDENTICAL bodies (deterministic simulation);
        # private keys get distinct ones.
        items_a = [(k, _body(100 + i)) for i, k in enumerate(shared_keys)]
        items_a += [(k, _body(i)) for i, k in enumerate(own_a)]
        items_b = [(k, _body(100 + i)) for i, k in enumerate(shared_keys)]
        items_b += [(k, _body(50 + i)) for i, k in enumerate(own_b)]

        ctx = multiprocessing.get_context("fork")
        barrier = ctx.Barrier(2)
        procs = [ctx.Process(target=_writer_proc, args=(root, items, barrier))
                 for items in (items_a, items_b)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0

        store = ShardedDirStore(root)
        all_keys = shared_keys + own_a + own_b
        assert sorted(store.keys()) == sorted(all_keys)
        # no torn entries: every file re-hashes clean
        report = store.verify()
        assert report["ok"] == len(all_keys) and report["corrupt"] == []
        # winners are bit-identical to what both writers produced
        for i, key in enumerate(shared_keys):
            assert store.get(key)["result"] == {"cycles": 100 + i}
        # no abandoned temp files
        leftovers = [p for shard in (root / "objects").iterdir()
                     for p in shard.iterdir() if p.name.startswith(".tmp-")]
        assert leftovers == []


# ----------------------------------------------------------------------
# Crash recovery (satellite: kill a worker mid-claim, survivors finish)
# ----------------------------------------------------------------------
def _claim_then_hang(root, key, ttl, claimed):
    board = LeaseBoard(root, ttl=ttl)
    assert board.claim(key, "crashy") is not None
    claimed.set()
    time.sleep(120)  # killed long before this returns


class TestCrashRecovery:
    def test_killed_workers_claims_are_reclaimed(self, tmp_path):
        specs = _specs()
        baseline = run_specs(specs)  # plain single-worker run

        root = tmp_path / "store"
        url = f"dir:{root}"
        victim_key = specs[0].cache_key()
        ctx = multiprocessing.get_context("fork")
        claimed = ctx.Event()
        proc = ctx.Process(target=_claim_then_hang,
                           args=(root, victim_key, 0.6, claimed))
        proc.start()
        assert claimed.wait(timeout=30)
        proc.kill()  # dies holding a live lease on specs[0]
        proc.join(timeout=30)

        runner_mod.STATS.reset()
        start = time.time()
        results = run_specs(specs, cache=True, store=url,
                            worker_id="survivor", lease_ttl=0.6)
        assert results == baseline
        # every spec ran exactly once, and the dead worker's lease was
        # taken over (not waited on forever, not double-run)
        assert runner_mod.STATS.executed == len(specs)
        assert runner_mod.STATS.reclaimed == 1
        assert time.time() - start < 30

    def test_drain_completes_work_already_leased_to_nobody(self, tmp_path):
        # expired leases left by a dead worker on EVERY key: one survivor
        # still finishes the whole matrix.
        specs = _specs(("central", "syncron"))
        root = tmp_path / "store"
        store = ShardedDirStore(root)
        dead = LeaseBoard(root, ttl=0.01)
        work = {spec.cache_key(): spec for spec in specs}
        for key in work:
            dead.claim(key, "crashy")
        time.sleep(0.02)
        counters = drain(store, LeaseBoard(root, ttl=30), work, "survivor")
        assert counters["executed"] == len(specs)
        assert counters["reclaimed"] == len(specs)
        assert sorted(store.keys()) == sorted(work)


# ----------------------------------------------------------------------
# Exactly-once multi-worker drains through run_specs
# ----------------------------------------------------------------------
class TestMultiWorkerDrain:
    def test_three_workers_bit_identical_and_exactly_once(self, tmp_path):
        specs = _specs()
        baseline = run_specs(specs)
        url = f"dir:{tmp_path / 'store'}"
        runner_mod.STATS.reset()
        cold = run_specs(specs, workers=3, cache=True, store=url)
        assert cold == baseline
        assert runner_mod.STATS.executed == len(specs)  # exactly once
        runner_mod.STATS.reset()
        warm = run_specs(specs, workers=3, cache=True, store=url)
        assert warm == baseline
        assert runner_mod.STATS.executed == 0  # zero simulations
        assert runner_mod.STATS.cache_hits == len(specs)

    def test_worker_id_alone_coordinates_through_the_store(self, tmp_path):
        # two sequential "hosts" with worker ids: the second simulates 0
        specs = _specs(("central", "syncron"))
        url = f"dir:{tmp_path / 'store'}"
        runner_mod.STATS.reset()
        first = run_specs(specs, cache=True, store=url, worker_id="host1")
        assert runner_mod.STATS.executed == len(specs)
        runner_mod.STATS.reset()
        second = run_specs(specs, cache=True, store=url, worker_id="host2")
        assert runner_mod.STATS.executed == 0
        assert first == second

    def test_cache_off_parallel_drain_matches_serial(self):
        # with no store to coordinate through, workers drain through an
        # ephemeral dir store; the rows equal the serial run's.
        specs = _specs(("central", "syncron"))
        baseline = run_specs(specs)
        runner_mod.STATS.reset()
        results = run_specs(specs, workers=2, cache=False)
        assert runner_mod.STATS.executed == len(specs)
        assert results == baseline


# ----------------------------------------------------------------------
# The `repro cache` CLI surface
# ----------------------------------------------------------------------
class TestCacheCli:
    def _populate(self, tmp_path):
        spec = _specs(("syncron",))[0]
        run_specs([spec], cache=True, store=str(tmp_path))
        return spec

    def test_stats(self, tmp_path, capsys):
        self._populate(tmp_path)
        assert main(["cache", "stats", "--store", str(tmp_path),
                     "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["entries"] == 1 and report["backend"] == "dir"

    def test_verify_flags_corruption(self, tmp_path, capsys):
        spec = self._populate(tmp_path)
        assert main(["cache", "verify", "--store", str(tmp_path)]) == 0
        path = ShardedDirStore(tmp_path).path_for(spec.cache_key())
        path.write_text("{broken")
        assert main(["cache", "verify", "--store", str(tmp_path)]) == 1
        assert "quarantined" in capsys.readouterr().err

    def test_gc_reports_counts(self, tmp_path, capsys):
        spec = self._populate(tmp_path)
        path = ShardedDirStore(tmp_path).path_for(spec.cache_key())
        record = json.loads(path.read_text())
        record["version"] = CACHE_FORMAT_VERSION + 1
        record["digest"] = payload_digest(record)
        path.write_text(json.dumps(record))
        assert main(["cache", "gc", "--store", str(tmp_path),
                     "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["stale_removed"] == 1

    def test_unknown_scheme_fails_cleanly(self, capsys):
        assert main(["cache", "stats", "--store", "kafka:x"]) == 2
        assert "unknown store scheme" in capsys.readouterr().err

    def test_retired_shared_scheme_is_rejected(self, capsys):
        assert main(["cache", "stats", "--store", "shared:x"]) == 2
        assert "unknown store scheme" in capsys.readouterr().err
