"""Bounded, thread-safe LRU cache of optimized plans.

Entries are keyed by the canonical request signature computed in
:mod:`repro.service.core` and store the winning plan *in canonical
vertex space* — vertex ``p`` of a cached plan is canonical position
``p``, not any particular query's numbering.  On a hit the service maps
the plan back through the requesting query's own canonical order, so one
entry serves every isomorphic relabeling of the shape it was built from.

The cache is an ``OrderedDict`` LRU under a single lock with monotonic
hit/miss/eviction counters, and round-trips to JSON through
:func:`repro.serialize.plan_cache_to_dict` /
:func:`repro.serialize.plan_cache_from_dict` so warm state survives
process restarts.  Persistence is crash-safe: ``save`` writes through a
temp file and :func:`os.replace`, and ``load`` tolerates torn files
(warn + empty) and quarantines individually corrupt entries instead of
refusing the whole file.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional

from repro.errors import OptimizationError, ReproError
from repro.plan.jointree import JoinTree

__all__ = ["CacheEntry", "LRUMemo", "PlanCache"]


class LRUMemo:
    """Bounded, thread-safe LRU map with monotonic hit/miss counters.

    The small memos in front of the plan cache: the front door's route
    memo (request digest -> shard) and the service's digest memo
    (request digest -> resolved cache key).  Values must not be None.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def get(self, key: Hashable) -> Any:
        """The value under ``key`` (refreshing recency, counted) or None."""
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return value

    def peek(self, key: Hashable) -> Any:
        """The value under ``key`` or None; touches neither recency nor counters."""
        with self._lock:
            return self._entries.get(key)

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh ``key``, evicting LRU entries over capacity."""
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
            }


@dataclass
class CacheEntry:
    """One cached optimization outcome.

    ``plan`` lives in canonical vertex space (leaf relation names are
    ``C0..Cn-1`` placeholders); the run counters are the provenance of
    the producing run and are echoed on cache-hit results.
    """

    signature: str
    plan: JoinTree
    algorithm: str
    memo_entries: int = 0
    cost_evaluations: int = 0
    cardinality_estimations: int = 0
    details: Dict[str, int] = field(default_factory=dict)


class PlanCache:
    """Bounded LRU mapping request signatures to :class:`CacheEntry`.

    ``get`` refreshes recency and counts a hit or miss; ``put`` inserts
    (or refreshes) and evicts the least-recently-used entry beyond
    ``capacity``.  All operations and counters are guarded by one lock,
    because :meth:`~repro.service.OptimizerService.optimize` may be
    called from several threads at once.
    """

    def __init__(self, capacity: int = 512):
        if capacity < 1:
            raise OptimizationError(
                f"plan cache capacity must be >= 1, got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # ------------------------------------------------------------------

    def get(self, signature: str) -> Optional[CacheEntry]:
        """Return the entry for ``signature`` (refreshing recency) or None."""
        with self._lock:
            entry = self._entries.get(signature)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(signature)
            self._hits += 1
            return entry

    def put(self, entry: CacheEntry) -> None:
        """Insert or refresh an entry, evicting LRU entries over capacity."""
        with self._lock:
            if entry.signature in self._entries:
                self._entries.move_to_end(entry.signature)
            self._entries[entry.signature] = entry
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, signature: str) -> bool:
        """Membership test; does not touch recency or counters."""
        with self._lock:
            return signature in self._entries

    def clear(self) -> None:
        """Drop all entries (counters keep their lifetime values)."""
        with self._lock:
            self._entries.clear()

    def signatures(self) -> List[str]:
        """Return cached signatures, least- to most-recently used."""
        with self._lock:
            return list(self._entries)

    def entries(self) -> List[CacheEntry]:
        """Return a snapshot of entries, least- to most-recently used."""
        with self._lock:
            return list(self._entries.values())

    def stats(self) -> Dict[str, int]:
        """Return size/capacity plus monotonic hit/miss/eviction counts."""
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def save(self, path: str) -> int:
        """Atomically write all entries to a JSON file; returns entry count.

        The document is written to a same-directory temp file, fsynced,
        and moved into place with :func:`os.replace`, so a crash at any
        instant leaves either the old file or the new one — never a torn
        half-write.  Each entry carries a checksum (see
        :func:`repro.serialize.plan_cache_entry_checksum`) that ``load``
        verifies.
        """
        from repro.serialize import plan_cache_to_dict

        document = plan_cache_to_dict(self)
        _atomic_write_json(path, document)
        return len(document["entries"])

    def load(self, path: str, quarantine_path: Optional[str] = None) -> int:
        """Merge entries from a JSON file in the file's recency order.

        Returns the number of entries loaded; if capacity is exceeded
        the usual LRU eviction applies (and is counted).

        Corruption never poisons a warm start:

        * a truncated or garbage **file** (half-written by a crashed
          process, wrong format) loads as *zero entries* with a
          :class:`RuntimeWarning` instead of raising;
        * a corrupt **entry** (checksum mismatch, undecodable plan) is
          quarantined — appended to ``<path>.quarantine`` (or
          ``quarantine_path``) with the decode error — and the remaining
          entries load normally.

        A missing file still raises :class:`FileNotFoundError`: pointing
        the service at the wrong path is a caller bug, not corruption.
        """
        from repro.serialize import plan_cache_from_dict_tolerant

        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            raise
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as exc:
            warnings.warn(
                f"plan cache file {path!r} is corrupt ({exc}); "
                "starting with an empty cache",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0
        try:
            entries, rejected = plan_cache_from_dict_tolerant(document)
        except ReproError as exc:
            warnings.warn(
                f"plan cache file {path!r} is not a plan cache ({exc}); "
                "starting with an empty cache",
                RuntimeWarning,
                stacklevel=2,
            )
            return 0
        if rejected:
            destination = quarantine_path or f"{path}.quarantine"
            try:
                _atomic_write_json(
                    destination,
                    {"kind": "plan_cache_quarantine", "rejected": rejected},
                )
                where = f"quarantined to {destination!r}"
            except OSError as exc:
                where = f"quarantine write failed ({exc}); entries dropped"
            warnings.warn(
                f"plan cache file {path!r}: skipped {len(rejected)} corrupt "
                f"entr{'y' if len(rejected) == 1 else 'ies'} ({where}); "
                f"loaded the remaining {len(entries)}",
                RuntimeWarning,
                stacklevel=2,
            )
        for entry in entries:
            self.put(entry)
        return len(entries)


def _fsync_directory(directory: str) -> None:
    """Flush a directory's entry table to stable storage, best effort.

    After :func:`os.replace`, the *file contents* are durable (the temp
    file was fsynced) but the *rename itself* lives in the directory
    inode — without a directory fsync a power failure can roll the
    directory back to the old entry.  Some platforms (notably Windows,
    and some network filesystems) cannot open or fsync a directory fd;
    there the rename's durability is the OS's problem and we skip
    silently rather than fail a write that already succeeded.
    """
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


def _atomic_write_json(path: str, document: Dict) -> None:
    """Write JSON via temp file + fsync + :func:`os.replace` (crash-safe).

    The containing directory is fsynced after the rename so the new
    entry — not just the new bytes — survives power loss.
    """
    directory = os.path.dirname(os.path.abspath(path))
    handle = tempfile.NamedTemporaryFile(
        mode="w",
        encoding="utf-8",
        dir=directory,
        prefix=os.path.basename(path) + ".tmp.",
        delete=False,
    )
    try:
        with handle:
            json.dump(document, handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(handle.name, path)
        _fsync_directory(directory)
    except BaseException:
        try:
            os.unlink(handle.name)
        except OSError:
            pass
        raise
