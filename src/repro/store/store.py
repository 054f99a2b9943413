"""Persistent content-addressed artifact store.

Disk layout (root defaults to ``.repro/store``, overridable with
``REPRO_CACHE_DIR``)::

    <root>/objects/<key[:2]>/<key>.json     one artifact per file
    <root>/locks/<key>.lock                 per-key compute/write locks
    <root>/quarantine/<key>.<reason>.json   corrupt entries, moved aside

Every entry file is a JSON document carrying its own integrity
metadata::

    {"key": ..., "kind": ..., "schema": ..., "backend": ...,
     "digest": sha256(canonical(payload)), "payload": ...}

Writes are atomic in the same way :mod:`repro.runner` checkpoints are:
the document is written to a same-directory temp file, flushed and
fsynced, then ``os.rename``-ed into place, all under an exclusive
per-key file lock so two processes can never interleave a write.
Reads verify the embedded digest and the key/kind match; a truncated,
unparsable or digest-mismatched file is **treated as a miss** and moved
into ``quarantine/`` (never deleted — it is evidence).

A bounded in-memory LRU tier sits above the disk tier, so a driver that
asks for the same artifact repeatedly within one process pays the JSON
parse once.  The disk tier itself can be capped with
``REPRO_CACHE_DISK_BYTES``: the :meth:`ArtifactStore.gc` janitor evicts
oldest-access-first (disk hits refresh the mtime) down to the cap,
opportunistically on every put and on demand via ``repro cache gc``.
Hit/miss/eviction counters are mirrored into :mod:`repro.perf`
(``store.*``) and kept on the instance for :meth:`ArtifactStore.stats`.
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import faults, perf
from repro.store.keys import artifact_key, digest_of, schema_version

try:  # POSIX file locking; the store degrades gracefully without it
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

#: Environment variable overriding the store root directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
#: Environment variable disabling the cache entirely ("off"/"0"/"no").
CACHE_ENV = "REPRO_CACHE"
#: Environment variable capping the disk tier (total object bytes).
#: Unset or empty means unbounded; the janitor (:meth:`ArtifactStore.gc`)
#: evicts oldest-access-first down to the cap.
CACHE_DISK_ENV = "REPRO_CACHE_DISK_BYTES"

#: Default quarantine capacity (entries).  Quarantine keeps corrupt
#: files as evidence, but evidence must not grow without bound: beyond
#: the cap the *oldest* quarantined files are dropped.
DEFAULT_QUARANTINE_ENTRIES = 64

#: Publication temp files older than this are presumed orphans of a
#: crashed writer and swept by :meth:`ArtifactStore.gc`.
ORPHAN_TMP_AGE_S = 300.0

#: Default root, relative to the working directory (next to the
#: resilient runner's ``.repro`` checkpoints).
DEFAULT_ROOT = os.path.join(".repro", "store")

#: Default in-memory LRU capacity (entries).
DEFAULT_MEMORY_ENTRIES = 128


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE`` opts out (``off``/``0``/``no``/``false``)."""
    raw = os.environ.get(CACHE_ENV, "").strip().lower()
    return raw not in ("off", "0", "no", "false", "disabled")


def default_root() -> str:
    """The store root: ``REPRO_CACHE_DIR`` or ``.repro/store``."""
    return os.environ.get(CACHE_DIR_ENV, "").strip() or DEFAULT_ROOT


@contextmanager
def _null_context() -> Iterator[bool]:
    yield False


def default_disk_bytes() -> Optional[int]:
    """The disk-tier cap: ``REPRO_CACHE_DISK_BYTES`` or ``None``
    (unbounded)."""
    raw = os.environ.get(CACHE_DISK_ENV, "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{CACHE_DISK_ENV}={raw!r} is not an integer")
    return max(0, value)


class ArtifactStore:
    """Content-addressed JSON artifact cache (disk + bounded memory LRU).

    Parameters
    ----------
    root:
        Store directory; created lazily on first write.
    memory_entries:
        In-memory LRU capacity (default 128; 0 disables the memory
        tier).
    disk_bytes:
        Disk-tier byte cap (``None`` = ``REPRO_CACHE_DISK_BYTES`` or
        unbounded).  When set, every :meth:`put` opportunistically runs
        the :meth:`gc` janitor.
    quarantine_entries:
        Quarantine directory cap (default 64).
    """

    def __init__(self, root: Optional[str] = None,
                 memory_entries: Optional[int] = None,
                 disk_bytes: Optional[int] = None,
                 quarantine_entries: Optional[int] = None):
        self.root = root if root is not None else default_root()
        self.memory_entries = (memory_entries if memory_entries is not None
                               else DEFAULT_MEMORY_ENTRIES)
        self.disk_bytes = (disk_bytes if disk_bytes is not None
                           else default_disk_bytes())
        self.quarantine_entries = (quarantine_entries
                                   if quarantine_entries is not None
                                   else DEFAULT_QUARANTINE_ENTRIES)
        self._memory: "OrderedDict[str, Any]" = OrderedDict()
        self.counters: Dict[str, int] = {
            "hit_mem": 0, "hit_disk": 0, "miss": 0, "corrupt": 0,
            "puts": 0, "evictions": 0, "gc_evictions": 0,
            "quarantine_pruned": 0, "orphans_swept": 0,
        }

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def object_path(self, key: str) -> str:
        return os.path.join(self.root, "objects", key[:2], f"{key}.json")

    def lock_path(self, key: str) -> str:
        return os.path.join(self.root, "locks", f"{key}.lock")

    def _quarantine_path(self, key: str, reason: str) -> str:
        return os.path.join(self.root, "quarantine", f"{key}.{reason}.json")

    def _bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        perf.count(f"store.{name}", amount)

    # ------------------------------------------------------------------
    # the two tiers
    # ------------------------------------------------------------------
    def _memory_get(self, key: str) -> Tuple[bool, Any]:
        if self.memory_entries <= 0:
            return False, None
        try:
            payload = self._memory.pop(key)
        except KeyError:
            return False, None
        self._memory[key] = payload  # re-insert at MRU position
        return True, payload

    def _memory_put(self, key: str, payload: Any) -> None:
        if self.memory_entries <= 0:
            return
        if key in self._memory:
            self._memory.pop(key)
        self._memory[key] = payload
        while len(self._memory) > self.memory_entries:
            self._memory.popitem(last=False)  # evict the LRU entry
            self._bump("evictions")

    def get(self, key: str) -> Tuple[bool, Any]:
        """Look up ``key``: ``(True, payload)`` on a hit, else
        ``(False, None)``.

        Disk entries are digest-verified; corrupt or truncated files
        count as misses and are quarantined.
        """
        hit, payload = self._memory_get(key)
        if hit:
            self._bump("hit_mem")
            return True, payload
        path = self.object_path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            self._bump("miss")
            return False, None
        fault = faults.check("store.disk_read")
        if fault is not None:
            if fault.kind == "io_error":
                self._bump("miss")
                return False, None
            # "corrupt": bit-rot the bytes we just read; the digest
            # check below quarantines the entry and reports a miss, so
            # the caller recomputes — byte-identity is preserved.
            raw = raw[:max(0, len(raw) // 2)]
        try:
            document = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, ValueError):
            self._quarantine(key, "unparsable")
            self._bump("corrupt")
            self._bump("miss")
            return False, None
        payload, reason = self._validate(key, document)
        if reason is not None:
            self._quarantine(key, reason)
            self._bump("corrupt")
            self._bump("miss")
            return False, None
        self._memory_put(key, payload)
        self._bump("hit_disk")
        try:  # refresh the access stamp the LRU janitor sorts by
            os.utime(path, None)
        except OSError:  # pragma: no cover - raced with gc/clear
            pass
        return True, payload

    @staticmethod
    def _validate(key: str, document: Any) -> Tuple[Any, Optional[str]]:
        """``(payload, None)`` when the document is intact, else
        ``(None, reason)``."""
        if not isinstance(document, dict):
            return None, "malformed"
        for field in ("key", "kind", "digest", "payload"):
            if field not in document:
                return None, "malformed"
        if document["key"] != key:
            return None, "wrong-key"
        try:
            if digest_of(document["payload"]) != document["digest"]:
                return None, "digest-mismatch"
        except ValueError:
            return None, "malformed"
        return document["payload"], None

    def put(self, key: str, payload: Any, kind: str = "artifact",
            backend: str = "", lock: bool = True) -> str:
        """Write one artifact atomically; returns its file path.

        The write happens under the key's exclusive file lock (tmp +
        fsync + rename), so concurrent writers of the same key
        serialize and readers only ever see complete documents.  A
        caller that already holds the key's lock (the service's
        coalescing miss path) passes ``lock=False`` — ``flock`` locks
        on separate descriptors of one file exclude each other even
        within a process, so re-locking here would self-deadlock.
        """
        document = {
            "key": key,
            "kind": kind,
            "schema": schema_version(kind),
            "backend": backend,
            "digest": digest_of(payload),
            "payload": payload,
        }
        encoded = json.dumps(document, sort_keys=True).encode("utf-8")
        path = self.object_path(key)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        write_fault = faults.check("store.disk_write")
        if write_fault is not None and write_fault.kind == "io_error":
            faults.raise_io_error("store.disk_write", write_fault)
        if write_fault is not None and write_fault.kind == "torn":
            # A torn write: only a prefix of the document reaches disk
            # (as after a crash that lost the tail from the page
            # cache).  The file still lands, so the next reader
            # exercises the quarantine-and-recompute path.
            encoded = encoded[:max(1, len(encoded) // 2)]
        with self.locked(key) if lock else _null_context():
            fd, tmp_path = tempfile.mkstemp(dir=directory,
                                            prefix=f".{key[:8]}-",
                                            suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(encoded)
                    handle.flush()
                    fsync_fault = faults.check("store.fsync")
                    if fsync_fault is not None:
                        faults.raise_io_error("store.fsync", fsync_fault)
                    os.fsync(handle.fileno())
                publish_fault = faults.check("store.publish")
                if publish_fault is not None:
                    # Between fsync and rename: the window where a
                    # crashed writer leaves an orphan tmp file and no
                    # published entry.
                    faults.crash_or_hang(publish_fault)
                os.rename(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        if write_fault is None or write_fault.kind != "torn":
            # A torn write must stay visible: caching the good payload
            # in memory would hide the corrupt disk entry from the
            # very reader meant to quarantine it.
            self._memory_put(key, payload)
        self._bump("puts")
        if self.disk_bytes is not None:
            self.gc(self.disk_bytes)
        return path

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a corrupt entry aside (evidence, and future misses).

        The quarantine directory is capped (``quarantine_entries``):
        evidence beyond the cap is dropped oldest-first so a flaky disk
        cannot grow it without bound.
        """
        destination = self._quarantine_path(key, reason)
        os.makedirs(os.path.dirname(destination), exist_ok=True)
        try:
            os.rename(self.object_path(key), destination)
        except OSError:  # pragma: no cover - lost a race with another reader
            pass
        self._memory.pop(key, None)
        self._prune_quarantine()

    def _quarantine_files(self) -> List[str]:
        quarantine = os.path.join(self.root, "quarantine")
        if not os.path.isdir(quarantine):
            return []
        return [os.path.join(quarantine, name)
                for name in sorted(os.listdir(quarantine))]

    def _prune_quarantine(self) -> int:
        """Drop the oldest quarantined files beyond the cap."""
        if self.quarantine_entries <= 0:
            return 0
        census = []
        for path in self._quarantine_files():
            try:
                census.append((os.path.getmtime(path), path))
            except OSError:  # pragma: no cover - raced with clear
                continue
        pruned = 0
        excess = len(census) - self.quarantine_entries
        if excess > 0:
            for _mtime, path in sorted(census)[:excess]:
                try:
                    os.unlink(path)
                    pruned += 1
                except OSError:  # pragma: no cover - concurrent prune
                    pass
        if pruned:
            self._bump("quarantine_pruned", pruned)
        return pruned

    def sweep_orphans(self, max_age_s: float = ORPHAN_TMP_AGE_S) -> int:
        """Unlink publication temp files older than ``max_age_s``.

        A writer killed between tmp write and rename leaves a
        ``.<key>-*.tmp`` orphan in the shard directory; it is invisible
        to readers (misses stay clean) but holds disk.  Age-gating
        keeps the sweep from racing a live publisher.
        """
        objects = os.path.join(self.root, "objects")
        if not os.path.isdir(objects):
            return 0
        cutoff = time.time() - max(0.0, max_age_s)
        swept = 0
        for shard in os.listdir(objects):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in os.listdir(shard_dir):
                if not name.endswith(".tmp"):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    if os.path.getmtime(path) <= cutoff:
                        os.unlink(path)
                        swept += 1
                except OSError:  # pragma: no cover - raced with writer
                    continue
        if swept:
            self._bump("orphans_swept", swept)
        return swept

    # ------------------------------------------------------------------
    # locking
    # ------------------------------------------------------------------
    @contextmanager
    def locked(self, key: str, shared: bool = False) -> Iterator[bool]:
        """Hold the key's file lock; yields True when the lock was
        *contended* (another process held it first).

        Used both for single-writer publication and for cross-process
        request coalescing: a process that finds the lock held blocks
        until the holder finishes, then re-checks the store before
        computing.  Degrades to no locking when ``fcntl`` is missing.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            yield False
            return
        lock_fault = faults.check("store.lock")
        if lock_fault is not None:  # "stall": a slow-lock delay
            time.sleep(lock_fault.delay_s)
        path = self.lock_path(key)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        handle = open(path, "a+")
        mode = fcntl.LOCK_SH if shared else fcntl.LOCK_EX
        contended = False
        try:
            try:
                fcntl.flock(handle.fileno(), mode | fcntl.LOCK_NB)
            except OSError as exc:
                if exc.errno not in (errno.EACCES, errno.EAGAIN):
                    raise
                contended = True
                fcntl.flock(handle.fileno(), mode)  # block until free
            yield contended
        finally:
            try:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            finally:
                handle.close()

    # ------------------------------------------------------------------
    # maintenance / introspection
    # ------------------------------------------------------------------
    def _object_files(self) -> List[str]:
        objects = os.path.join(self.root, "objects")
        paths: List[str] = []
        if not os.path.isdir(objects):
            return paths
        for shard in sorted(os.listdir(objects)):
            shard_dir = os.path.join(objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if name.endswith(".json"):
                    paths.append(os.path.join(shard_dir, name))
        return paths

    def entries(self) -> List[dict]:
        """Metadata of every disk entry (no digest verification)."""
        rows = []
        for path in self._object_files():
            key = os.path.basename(path)[:-len(".json")]
            row = {"key": key, "bytes": os.path.getsize(path),
                   "mtime": os.path.getmtime(path), "kind": "?",
                   "backend": "?", "schema": None}
            try:
                with open(path) as handle:
                    document = json.load(handle)
                if isinstance(document, dict):
                    row["kind"] = document.get("kind", "?")
                    row["backend"] = document.get("backend", "?")
                    row["schema"] = document.get("schema")
            except (OSError, ValueError):
                row["kind"] = "(unreadable)"
            rows.append(row)
        return rows

    def verify(self) -> Dict[str, int]:
        """Digest-check every disk entry, quarantining broken ones.

        Returns ``{"ok": n, "corrupt": n}``.
        """
        ok = corrupt = 0
        for path in self._object_files():
            key = os.path.basename(path)[:-len(".json")]
            try:
                with open(path, "rb") as handle:
                    document = json.loads(handle.read().decode("utf-8"))
            except (OSError, UnicodeDecodeError, ValueError):
                self._quarantine(key, "unparsable")
                corrupt += 1
                continue
            _payload, reason = self._validate(key, document)
            if reason is not None:
                self._quarantine(key, reason)
                corrupt += 1
            else:
                ok += 1
        return {"ok": ok, "corrupt": corrupt}

    def gc(self, max_bytes: Optional[int] = None) -> Dict[str, int]:
        """Size-capped LRU eviction of the disk tier.

        Evicts entries oldest-access-first (disk hits refresh the
        mtime, so mtime order is access order) until the objects
        directory fits ``max_bytes`` (default: the store's configured
        cap; ``None`` with no cap is a no-op).  Each victim is removed
        under its per-key file lock, taken *non-blocking*: a key whose
        lock is held — mid-compute or mid-write elsewhere — is skipped
        this round rather than waited on, so the janitor can never
        stall or deadlock a publisher.  Runs opportunistically on every
        :meth:`put` when a cap is configured, and on demand via
        ``repro cache gc``.

        Returns ``{"evicted": n, "freed_bytes": b, "bytes": remaining}``.
        """
        if max_bytes is None:
            max_bytes = self.disk_bytes
        result = {"evicted": 0, "freed_bytes": 0, "bytes": 0,
                  "orphans_swept": self.sweep_orphans(),
                  "quarantine_pruned": self._prune_quarantine()}
        if max_bytes is None:
            return result
        census = []
        for path in self._object_files():
            try:
                stat = os.stat(path)
            except OSError:  # pragma: no cover - raced with another gc
                continue
            census.append((stat.st_mtime, path, stat.st_size))
        total = sum(size for _mtime, _path, size in census)
        for mtime, path, size in sorted(census):
            if total <= max_bytes:
                break
            key = os.path.basename(path)[:-len(".json")]
            if not self._evict_locked(key, path):
                continue  # lock contended: in use, skip this round
            total -= size
            result["evicted"] += 1
            result["freed_bytes"] += size
            self._bump("gc_evictions")
        result["bytes"] = total
        return result

    def _evict_locked(self, key: str, path: str) -> bool:
        """Unlink one object under its non-blocking exclusive lock."""
        if fcntl is None:  # pragma: no cover - non-POSIX platform
            locked = None
        else:
            lock_path = self.lock_path(key)
            os.makedirs(os.path.dirname(lock_path), exist_ok=True)
            locked = open(lock_path, "a+")
            try:
                fcntl.flock(locked.fileno(),
                            fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                locked.close()
                return False
        try:
            try:
                os.unlink(path)
            except OSError:  # pragma: no cover - raced with another gc
                return False
            self._memory.pop(key, None)
            return True
        finally:
            if locked is not None:
                try:
                    fcntl.flock(locked.fileno(), fcntl.LOCK_UN)
                finally:
                    locked.close()

    def clear(self) -> int:
        """Delete every disk entry (quarantine included); returns count."""
        removed = 0
        for path in self._object_files():
            try:
                os.unlink(path)
                removed += 1
            except OSError:  # pragma: no cover - concurrent clear
                pass
        quarantine = os.path.join(self.root, "quarantine")
        if os.path.isdir(quarantine):
            for name in os.listdir(quarantine):
                try:
                    os.unlink(os.path.join(quarantine, name))
                    removed += 1
                except OSError:  # pragma: no cover
                    pass
        self._memory.clear()
        return removed

    def stats(self) -> dict:
        """JSON-ready snapshot: disk-tier census + in-process counters.

        ``kinds`` carries the disk tier's per-kind footprint —
        ``{kind: {"entries": n, "bytes": b}}`` — so ``repro cache
        stats`` can show where a capped store's budget goes.
        """
        entries = self.entries()
        kinds: Dict[str, Dict[str, int]] = {}
        for row in entries:
            bucket = kinds.setdefault(row["kind"],
                                      {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += row["bytes"]
        quarantine_files = self._quarantine_files()
        quarantine_bytes = 0
        for path in quarantine_files:
            try:
                quarantine_bytes += os.path.getsize(path)
            except OSError:  # pragma: no cover - raced with prune
                pass
        return {
            "root": self.root,
            "entries": len(entries),
            "bytes": sum(row["bytes"] for row in entries),
            "disk_capacity": self.disk_bytes,
            "kinds": dict(sorted(kinds.items())),
            "quarantined": len(quarantine_files),
            "quarantine_bytes": quarantine_bytes,
            "quarantine_capacity": self.quarantine_entries,
            "memory_entries": len(self._memory),
            "memory_capacity": self.memory_entries,
            "counters": dict(sorted(self.counters.items())),
        }


__all__ = ["ArtifactStore", "CACHE_DIR_ENV", "CACHE_DISK_ENV", "CACHE_ENV",
           "DEFAULT_MEMORY_ENTRIES", "DEFAULT_QUARANTINE_ENTRIES",
           "DEFAULT_ROOT", "ORPHAN_TMP_AGE_S", "artifact_key",
           "cache_enabled", "default_disk_bytes", "default_root"]
