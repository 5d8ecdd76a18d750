"""Content-addressed result store.

Every completed simulation is stored as ONE immutable object keyed by the
spec's SHA-256 cache key (:meth:`repro.harness.specs.RunSpec.cache_key`)
in a :class:`ShardedDirStore` (``dir:PATH`` or a bare path): one JSON file
per entry under ``objects/<first-2-hex>/<key>.json`` (256-way hash-prefix
fan-out).  Writes are atomic (temp file + ``os.link``), so readers never
observe a torn entry; a corrupted file is *quarantined* (moved aside and
recomputed), never a whole-cache loss.  The publish step runs under a
per-shard ``flock`` (lock files under ``locks/``) and ends with a
directory fsync, so an entry is durable before ``put`` returns and one
store is safe to share between concurrent processes.

Duplicate completion of the same key is resolved deterministically: the
FIRST durable write wins (``os.link`` onto the final name fails for
everyone else), and later writers verify their result is bit-identical to
the winner — any mismatch raises :class:`StoreIntegrityError`, because two
byte-different results for one spec hash means the simulator broke its
determinism contract.  Which specs to simulate, and in which process, is
the runner's business (:mod:`repro.harness.runner`).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import string
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.harness.specs import source_epoch
from repro.telemetry import get_telemetry

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX hosts
    fcntl = None

OBJECTS_DIR = "objects"
QUARANTINE_DIR = "quarantine"
LOCKS_DIR = "locks"
SHARD_CHARS = 2

#: record kinds the runner produces (RunMetrics vs measurement rows).
RECORD_KINDS = ("metrics", "row")

_HEX = set(string.hexdigits.lower())


class StoreError(Exception):
    """Misuse of the store layer (bad key, unknown scheme, ...)."""


class StoreIntegrityError(StoreError):
    """Two byte-different results were produced for one content key."""


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
def canonical_bytes(record: Dict) -> bytes:
    """The ONE serialized form of a record (bit-identity comparisons)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


def payload_digest(record: Dict) -> str:
    """SHA-256 over the result payload (everything but the envelope)."""
    payload = {k: v for k, v in record.items()
               if k not in ("version", "key", "digest")}
    return hashlib.sha256(canonical_bytes(payload)).hexdigest()


def normalize_record(key: str, body: Dict) -> Dict:
    """Body (kind/result/spec) -> full self-verifying record."""
    payload = {k: v for k, v in body.items()
               if k not in ("version", "key", "digest")}
    record = {"version": source_epoch(), "key": key, **payload}
    record["digest"] = payload_digest(record)
    return record


def record_status(record, key: Optional[str] = None) -> str:
    """Classify a decoded record: ``"ok"`` / ``"stale"`` / ``"corrupt"``.

    ``stale`` means shape-valid but written by other source code (its
    ``version`` is not this process's
    :func:`~repro.harness.specs.source_epoch`; ``gc`` drops these);
    everything unusable under any epoch is ``corrupt`` (quarantined on
    sight).
    """
    if (
        not isinstance(record, dict)
        or record.get("kind") not in RECORD_KINDS
        or not isinstance(record.get("result"), dict)
        or not isinstance(record.get("key"), str)
    ):
        return "corrupt"
    if key is not None and record["key"] != key:
        return "corrupt"
    if "digest" in record and record["digest"] != payload_digest(record):
        return "corrupt"
    if record.get("version") != source_epoch():
        return "stale"
    return "ok"


def check_key(key: str) -> str:
    """Keys are spec hashes; they double as filenames, so be strict."""
    if not isinstance(key, str) or len(key) < 8 or not set(key) <= _HEX:
        raise StoreError(f"not a content key (hex digest expected): {key!r}")
    return key


# ----------------------------------------------------------------------
# The store: a sharded directory
# ----------------------------------------------------------------------
class ShardedDirStore:
    """Hash-prefix sharded directory of one-JSON-file-per-result objects."""

    #: .tmp files older than this are presumed abandoned (gc removes them).
    TMP_MAX_AGE_SECONDS = 300.0

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)
        self._memo: Dict[str, Dict] = {}
        self.quarantined = 0      # this process, lifetime
        self.verified_duplicates = 0

    # -- paths ---------------------------------------------------------
    def _objects(self) -> Path:
        return self.root / OBJECTS_DIR

    def _path(self, key: str) -> Path:
        return self._objects() / key[:SHARD_CHARS] / f"{key}.json"

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (tests, tooling; may not exist)."""
        return self._path(check_key(key))

    def _quarantine(self, path: Path) -> None:
        """Move a damaged file aside (never delete data, never crash)."""
        dest_dir = self.root / QUARANTINE_DIR
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / path.name
        n = 0
        while dest.exists():
            n += 1
            dest = dest_dir / f"{path.name}.{n}"
        try:
            os.replace(path, dest)
            self.quarantined += 1
            tel = get_telemetry()
            tel.count("store.quarantines")
            tel.event("store.quarantine", path=str(path))
        except FileNotFoundError:
            pass  # another process beat us to it

    # -- read ----------------------------------------------------------
    def _read(self, key: str) -> Tuple[Optional[Dict], str]:
        """(record, status) for the on-disk entry; ("missing") if absent."""
        path = self._path(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None, "missing"
        try:
            record = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None, "corrupt"
        return record, record_status(record, key)

    def get(self, key: str) -> Optional[Dict]:
        """The valid current-epoch record for ``key``, or None."""
        check_key(key)
        memo = self._memo.get(key)
        if memo is not None:
            get_telemetry().count("store.hits")
            return memo
        record, status = self._read(key)
        if status == "ok":
            self._memo[key] = record
            get_telemetry().count("store.hits")
            return record
        if status == "corrupt":
            self._quarantine(self._path(key))
        get_telemetry().count("store.misses")
        return None  # missing / stale / corrupt all mean "recompute"

    # -- write ---------------------------------------------------------
    def _publish(self, tmp: Path, final: Path) -> bool:
        """Atomically give ``tmp``'s bytes the final name; False if the
        name is already taken (first durable write won)."""
        try:
            os.link(tmp, final)
        except FileExistsError:
            return False
        except OSError:
            # filesystem without hard links: os.replace is still atomic,
            # and racing writers of one key write identical bytes.
            os.replace(tmp, final)
            return True
        return True

    def put(self, key: str, body: Dict) -> Dict:
        """Durably publish ``body`` under ``key``; returns the WINNING
        record (first durable write wins; a racing loser verifies
        bit-identity and adopts the winner)."""
        with get_telemetry().span("store.publish"):
            return self._put(key, body)

    def _put(self, key: str, body: Dict) -> Dict:
        record = normalize_record(check_key(key), body)
        data = canonical_bytes(record) + b"\n"
        final = self._path(key)
        shard_dir = final.parent
        shard_dir.mkdir(parents=True, exist_ok=True)
        lock_dir = self.root / LOCKS_DIR
        lock_dir.mkdir(exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(prefix=".tmp-", dir=shard_dir)
        tmp = Path(tmp_name)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
            while True:
                with _flocked(lock_dir / f"{shard_dir.name}.lock"):
                    if self._publish(tmp, final):
                        break
                    existing, status = self._read(key)
                    if status == "ok":
                        # first durable write won; verify bit-identity.
                        if canonical_bytes(existing) != canonical_bytes(record):
                            raise StoreIntegrityError(
                                f"duplicate completion of {key} is not "
                                f"bit-identical to the stored winner "
                                f"({final})"
                            )
                        self.verified_duplicates += 1
                        get_telemetry().count("store.duplicates_verified")
                        self._memo[key] = existing
                        return existing
                    if status == "stale":
                        # current-epoch result supersedes an other-epoch
                        # entry (racing writers produce identical bytes).
                        os.replace(tmp, final)
                        break
                    if status == "corrupt":
                        self._quarantine(final)
                    # corrupt / missing: the name is free again -> retry
            _fsync_dir(shard_dir)
            self._memo[key] = record
            get_telemetry().count("store.publishes")
            return record
        finally:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass

    # -- enumeration / maintenance -------------------------------------
    def _entry_paths(self) -> Iterator[Path]:
        objects = self._objects()
        if not objects.is_dir():
            return
        for shard in sorted(p for p in objects.iterdir() if p.is_dir()):
            for path in sorted(shard.iterdir()):
                if path.name.endswith(".json") and not path.name.startswith("."):
                    yield path

    def keys(self) -> Iterator[str]:
        for path in self._entry_paths():
            yield path.name[:-len(".json")]

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def stats(self) -> Dict:
        entries = stale = corrupt = total_bytes = 0
        shards = set()
        for path in self._entry_paths():
            shards.add(path.parent.name)
            try:
                total_bytes += path.stat().st_size
            except FileNotFoundError:
                continue
            record, status = self._read(path.name[:-len(".json")])
            if status == "ok":
                entries += 1
            elif status == "stale":
                stale += 1
            else:
                corrupt += 1
        quarantine = self.root / QUARANTINE_DIR
        quarantined = (sum(1 for _ in quarantine.iterdir())
                       if quarantine.is_dir() else 0)
        return {"backend": "dir", "root": str(self.root),
                "entries": entries, "stale": stale, "corrupt": corrupt,
                "bytes": total_bytes, "shards": len(shards),
                "quarantined": quarantined}

    def verify(self) -> Dict:
        """Re-hash every entry; quarantine anything that fails."""
        ok = stale = 0
        corrupt: List[str] = []
        for path in list(self._entry_paths()):
            key = path.name[:-len(".json")]
            record, status = self._read(key)
            if status == "ok":
                ok += 1
            elif status == "stale":
                stale += 1
            elif status != "missing":
                corrupt.append(key)
                self._quarantine(path)
                self._memo.pop(key, None)
        quarantine = self.root / QUARANTINE_DIR
        total = (sum(1 for _ in quarantine.iterdir())
                 if quarantine.is_dir() else 0)
        return {"checked": ok + stale + len(corrupt), "ok": ok,
                "stale": stale, "corrupt": corrupt,
                "quarantined": len(corrupt),
                "quarantine_total": total}

    def gc(self) -> Dict:
        """Drop other-epoch entries and abandoned temp files."""
        stale_removed = tmp_removed = 0
        now = time.time()
        objects = self._objects()
        if objects.is_dir():
            for shard in list(objects.iterdir()):
                if not shard.is_dir():
                    continue
                for path in list(shard.iterdir()):
                    if path.name.startswith(".tmp-"):
                        try:
                            if now - path.stat().st_mtime > self.TMP_MAX_AGE_SECONDS:
                                path.unlink()
                                tmp_removed += 1
                        except FileNotFoundError:
                            pass
                        continue
                    if not path.name.endswith(".json"):
                        continue
                    key = path.name[:-len(".json")]
                    _record, status = self._read(key)
                    if status == "stale":
                        try:
                            path.unlink()
                            stale_removed += 1
                        except FileNotFoundError:
                            pass
                        self._memo.pop(key, None)
                try:
                    shard.rmdir()  # only succeeds when emptied
                except OSError:
                    pass
        return {"stale_removed": stale_removed, "tmp_removed": tmp_removed}


@contextlib.contextmanager
def _flocked(path: Path):
    """Advisory exclusive lock on ``path`` (no-op without fcntl)."""
    if fcntl is None:
        yield
        return
    with open(path, "a+") as fh:
        fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
        yield


def _fsync_dir(directory: Path) -> None:
    """Make ``directory``'s entries durable (best effort)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# URL opening
# ----------------------------------------------------------------------
def open_store(url: str) -> ShardedDirStore:
    """Open the result store named by ``url``: ``dir:PATH`` or a bare path."""
    if not url:
        raise StoreError("open_store needs a store url: dir:PATH or a path")
    scheme, sep, rest = url.partition(":")
    if not sep:
        return ShardedDirStore(url)  # bare path
    if scheme != "dir":
        raise StoreError(f"unknown store scheme {scheme!r}; use dir:PATH "
                         f"or a bare path")
    if not rest:
        raise StoreError(f"store url {url!r} needs a path, e.g. dir:PATH")
    return ShardedDirStore(rest)
