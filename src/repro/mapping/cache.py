"""Memoization for the mapping flow: repeated decompositions are free.

The mapping searches (:func:`~repro.mapping.decompose.decompose` and
the block match behind ``MappingSession.map``) and the candidate
generators are pure functions of their arguments, but their arguments
are large and not all hashable: a
:class:`~repro.library.catalog.Library` is a mutable collection of
polynomial-carrying elements, a :class:`~repro.platform.badge4.Badge4`
owns live model objects.  This module supplies the missing pieces:

* **Keys** — short tuples of *content digests* and scalars.  Every
  mapped-against resource (polynomial, library element, library,
  target block, processor spec) carries a ``digest`` computed once
  from exactly the inputs the algorithms read (:mod:`repro.digest`),
  so semantically equal libraries/platforms hit the same cache line
  even when they are distinct objects rebuilt per pass, and hashing a
  key costs the same for a 36-element library as for one element.
* **LRU caches** — bounded, with hit/miss/eviction counters.  The
  shared pure-function caches (instantiations, manipulations, hints)
  register centrally so :func:`shared_cache_stats` and
  :func:`clear_shared_caches` see them.
* **A persistent disk tier** — an sqlite-backed store under a cache
  directory, keyed by :func:`stable_digest` of the same key plus
  :data:`SCHEMA_VERSION`, so a second process (a CI re-run, a fresh
  benchmark) starts warm.
* **:class:`CacheTiers`** — an instantiable bundle of the two mapping
  LRUs plus an optional disk tier, and the one owner of the lookup
  policy.  A :class:`~repro.api.MappingSession` owns one, which is how
  two sessions with different cache directories coexist in one process
  with fully isolated statistics.

Cache-dir configuration
-----------------------
The disk tier is off unless a directory is given.  It is chosen once,
when a :class:`~repro.api.SessionConfig` builds the session's tiers
(``cache_dir=...``; ``SessionConfig.from_env`` reads
``REPRO_CACHE_DIR``, and ``REPRO_NO_CACHE=1`` force-disables it).

A cache directory holds one sqlite file, ``mapping_cache.sqlite``.
Disk keys cannot use Python ``hash`` (randomized per process); they
are sha256 digests of a canonical text encoding of the key joined with
the schema version (see :func:`stable_digest`), so bumping
:data:`SCHEMA_VERSION` invalidates every stale entry at once.  A
corrupted or unreadable store trips a circuit breaker (every lookup
misses, every write is dropped, and the store is re-probed after a
cooldown) — the cache must never break the computation.

Caching contract
----------------
Cached values are treated as immutable: callers receive frozen
dataclasses or tuples, never an aliased mutable structure that a later
hit would observe mutated.  Correctness therefore only requires that
digests cover every input the algorithms depend on — a digest
collision between semantically different inputs would be a bug in the
digest, not in the cache.  Values that reach the disk tier
additionally rely on the serialization contract
(``Polynomial.__getstate__``, ``LibraryElement.__getstate__``):
pickles carry only canonical state, and unpicklable kernels are
dropped because the mapping algorithms never execute them.
"""

from __future__ import annotations

import os
import pickle
import sqlite3
import threading
from pathlib import Path
from typing import Any, Callable, Hashable

from repro.digest import content_digest
from repro.frontend.extract import TargetBlock
from repro.library.catalog import Library
from repro.platform.badge4 import Badge4
from repro.resilience import CircuitBreaker, inject

__all__ = [
    "LRUCache",
    "DiskCache",
    "CacheTiers",
    "SCHEMA_VERSION",
    "shared_cache_stats",
    "clear_shared_caches",
    "stable_digest",
    "fingerprint_library",
    "fingerprint_block",
    "fingerprint_platform",
]

_MISS = object()

#: The shared pure-function caches, for stats and clearing.  Session-
#: owned :class:`CacheTiers` caches stay out of it — their statistics
#: are isolated by design.
_REGISTRY: list["LRUCache"] = []

#: Bump when a change alters what cached mapping results mean: new
#: fields on DecomposeResult/BlockMatch, digest coverage or encoding
#: changes, algorithm changes that affect outputs.  Entries written
#: under any other version are treated as absent.
#:
#: History: 1 — the PR-2 disk tier; 2 — the multi-platform sweep era
#: (pluggable processor registry + Pareto fronts derived from cached
#: match lists; platform identity has keyed every entry since v1, but
#: v1 entries predate the registry's non-SA-1110 specs and the
#: derived-front contract, so they are retired wholesale); 3 —
#: content-addressed keys (each resource enters a key as its cached
#: content digest, so every disk key changed encoding).
SCHEMA_VERSION = 3


class LRUCache:
    """A bounded mapping-layer cache with least-recently-used eviction.

    Thread-safe: the service front-end resolves requests on a worker
    thread pool, so ``get``'s pop-and-reinsert recency update and
    ``put``'s eviction must be atomic across threads, not just across
    bytecodes.

    ``register=False`` keeps a cache out of the shared registry:
    session-owned tiers opt out so :func:`shared_cache_stats` and
    :func:`clear_shared_caches` never reach across session boundaries.

    >>> cache = LRUCache(maxsize=2, name="doc")
    >>> cache.put("a", 1); cache.put("b", 2); cache.put("c", 3)
    >>> cache.get("a") is None          # evicted: capacity 2
    True
    >>> cache.get("c")
    3
    >>> stats = cache.stats()
    >>> stats["hits"], stats["misses"], stats["evictions"]
    (1, 1, 1)
    """

    def __init__(self, maxsize: int = 256, name: str = "", register: bool = True):
        if maxsize <= 0:
            raise ValueError(f"maxsize must be positive, got {maxsize}")
        self.maxsize = maxsize
        self.name = name
        self._data: dict[Hashable, Any] = {}
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        if register:
            _REGISTRY.append(self)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value for ``key`` (marking it recently used)."""
        with self._lock:
            value = self._data.pop(key, _MISS)
            if value is _MISS:
                self.misses += 1
                return default
            self._data[key] = value  # re-insert: now most recently used
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``key -> value``, evicting the LRU entry when full."""
        with self._lock:
            self._data.pop(key, None)
            self._data[key] = value
            if len(self._data) > self.maxsize:
                # dicts iterate in insertion order: first key is the LRU.
                self._data.pop(next(iter(self._data)))
                self.evictions += 1

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._data.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def stats(self) -> dict[str, int]:
        """``{"size", "maxsize", "hits", "misses", "evictions"}``."""
        with self._lock:
            return {
                "size": len(self._data),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }


# ----------------------------------------------------------------------
# Keys: short tuples of content digests and scalars
# ----------------------------------------------------------------------
def fingerprint_block(block: TargetBlock) -> str:
    """A target block's identity in cache keys: its content digest."""
    return block.digest


def fingerprint_library(library: Library) -> str:
    """A library's identity in cache keys: its order-independent digest."""
    return library.digest


def fingerprint_platform(platform: Badge4) -> str:
    """A platform's identity in cache keys: its processor spec's digest.

    The energy model and DVFS state are deliberately excluded: cached
    values are priced in cycles only, and the Pareto layer derives
    energy scores fresh in the calling process (see
    :mod:`repro.mapping.pareto`), so they can never be served stale.
    """
    return platform.cost_model.spec.digest


def stable_digest(key: tuple) -> str:
    """Hex sha256 of ``key`` plus :data:`SCHEMA_VERSION`: the disk key.

    Stable across processes and Python sessions; changes whenever the
    key's content or the schema version changes.  Keys are short tuples
    of resource digests and scalars, so this hashes a few hundred
    bytes; a :class:`~repro.symalg.polynomial.Polynomial` in a key
    enters as its own cached digest.
    """
    return content_digest(SCHEMA_VERSION, *key)


# ----------------------------------------------------------------------
# The persistent tier
# ----------------------------------------------------------------------
class DiskCache:
    """An sqlite-backed pickle store: the mapping layer's warm tier.

    One table of ``(key, schema, payload)`` rows.  Every operation is
    failure-tolerant by design: a locked database skips the operation,
    failures never raise, and :meth:`clear` deletes the file — which
    also repairs a broken store.  Connections are opened lazily and
    re-opened after a ``fork`` (sqlite connections must not cross
    process boundaries).

    Failure policy is a :class:`~repro.resilience.CircuitBreaker`
    rather than a permanent "broken" flag: a store that cannot even be
    opened (corrupt file) trips the circuit immediately, and
    ``failure_threshold`` consecutive operation failures (locked,
    I/O-error, corruption discovered mid-read) open it too.  While the
    circuit is open every lookup misses and every write drops — the
    mapping layer serves memory-only — and after ``cooldown`` seconds
    the next access probes the store (half-open) and closes the
    circuit again on success.  A transiently-locked or repaired store
    therefore heals without operator action; breaker state is visible
    in :meth:`stats` and on every stats surface above it.

    The ``disk_cache.read`` / ``disk_cache.write`` fault sites
    (:func:`repro.resilience.inject`) sit inside the sqlite error
    handling, so chaos tests drive exactly the degradation paths real
    corruption would.

    Thread-safe: one connection is shared under an instance lock
    (``check_same_thread=False``), because the service front-end's
    worker threads all consult the same tier — sqlite would otherwise
    raise ``ProgrammingError`` (a ``DatabaseError`` subclass) from any
    non-opening thread.
    """

    def __init__(
        self,
        path: "str | os.PathLike[str]",
        *,
        failure_threshold: int = 3,
        cooldown: float = 5.0,
        clock=None,
    ):
        self.path = Path(path)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None
        breaker_kwargs = {} if clock is None else {"clock": clock}
        self.breaker = CircuitBreaker(
            failure_threshold=failure_threshold,
            cooldown=cooldown,
            name=str(self.path),
            **breaker_kwargs,
        )
        self._lock = threading.RLock()

    # -- connection management -----------------------------------------
    def _connection(self) -> sqlite3.Connection | None:
        if not self.breaker.allow():
            return None
        pid = os.getpid()
        if self._conn is not None and self._pid == pid:
            return self._conn
        if self._conn is not None:
            # Inherited across fork: abandon without closing (closing
            # would checkpoint the parent's WAL from the child).
            self._conn = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=5.0, check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key TEXT PRIMARY KEY,"
                " schema INTEGER NOT NULL,"
                " payload BLOB NOT NULL)"
            )
            conn.commit()
        except sqlite3.OperationalError:
            # Locked / transiently unopenable: count toward the
            # threshold, it may clear on its own.
            self.breaker.record_failure()
            return None
        except sqlite3.DatabaseError:
            # The file is not (or no longer) a database: open the
            # circuit now — counting to the threshold against a store
            # that cannot even be opened is pointless retries.
            self.breaker.trip()
            return None
        except (sqlite3.Error, OSError):
            self.breaker.record_failure()
            return None
        self._conn, self._pid = conn, pid
        return conn

    # -- the store -------------------------------------------------------
    def get(self, digest: str) -> Any:
        """The stored value for ``digest``, or ``None`` on any miss.

        Misses include: no row, a row written under a different
        :data:`SCHEMA_VERSION`, an unreadable payload, a locked or
        corrupted database.  None of these raise.
        """
        with self._lock:
            conn = self._connection()
            if conn is None:
                self.misses += 1
                return None
            try:
                inject("disk_cache.read")
                row = conn.execute(
                    "SELECT schema, payload FROM entries WHERE key = ?",
                    (digest,),
                ).fetchone()
            except sqlite3.DatabaseError:  # locked, busy, or corrupted
                self.breaker.record_failure()
                self.misses += 1
                return None
            self.breaker.record_success()
            if row is None or row[0] != SCHEMA_VERSION:
                self.misses += 1
                return None
            try:
                value = pickle.loads(row[1])
            except Exception:  # stale/garbled payload
                self.misses += 1
                return None
            self.hits += 1
            return value

    def put(self, digest: str, value: Any) -> None:
        """Write-through ``digest -> value``; silently drops on failure."""
        with self._lock:
            conn = self._connection()
            if conn is None:
                return
            try:
                payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:  # unpicklable value: skip (not a store fault)
                return
            try:
                inject("disk_cache.write")
                conn.execute(
                    "INSERT OR REPLACE INTO entries (key, schema, payload)"
                    " VALUES (?, ?, ?)",
                    (digest, SCHEMA_VERSION, payload),
                )
                conn.commit()
            except sqlite3.DatabaseError:  # locked, busy, or corrupted
                self.breaker.record_failure()
                return
            self.breaker.record_success()
            self.writes += 1

    def clear(self) -> None:
        """Delete the store file (also repairs a broken store)."""
        with self._lock:
            if self._conn is not None and self._pid == os.getpid():
                try:
                    self._conn.close()
                except sqlite3.Error:
                    pass
            self._conn = None
            self._pid = None
            self.breaker.reset()
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(f"{self.path}{suffix}")
                except OSError:
                    pass
            self.hits = 0
            self.misses = 0
            self.writes = 0

    def __len__(self) -> int:
        with self._lock:
            conn = self._connection()
            if conn is None:
                return 0
            try:
                count = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
            except sqlite3.Error:
                self.breaker.record_failure()
                return 0
            self.breaker.record_success()
            return count

    def stats(self) -> dict:
        """Disk-tier statistics, including the observed hit rate."""
        lookups = self.hits + self.misses
        return {
            "enabled": True,
            "path": str(self.path),
            "size": len(self),
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
            "broken": self.breaker.state != CircuitBreaker.CLOSED,
            "breaker": self.breaker.stats(),
        }




# ----------------------------------------------------------------------
# Tier bundles: the instantiable cache-ownership unit
# ----------------------------------------------------------------------
#: Filename of the store inside a cache directory.
_DB_NAME = "mapping_cache.sqlite"


class CacheTiers:
    """The two mapping LRUs plus an optional disk tier, as one object.

    This is the cache-ownership unit of the session facade: a
    :class:`~repro.api.MappingSession` owns exactly one ``CacheTiers``,
    so two sessions in one process can point at different cache
    directories (or none) with fully isolated hit/miss/write counters.
    The disk tier lives under ``cache_dir`` when one is given and is
    off otherwise; the directory is fixed at construction and no
    environment variable is consulted here (``SessionConfig.from_env``
    is where ``REPRO_*`` is read).

    It is also the one place that knows the lookup policy
    (:meth:`lookup`, :meth:`store`, :meth:`resolve`): the LRU first,
    then the disk tier by :func:`stable_digest` (a disk hit is promoted
    into the LRU), and write-through to both on store.  Keys are the
    tagged tuples ``repro.mapping.decompose`` builds; the tag
    (``key[0]``, ``"decompose"`` or ``"map_block"``) picks the LRU.

    >>> tiers = CacheTiers()
    >>> tiers.disk is None
    True
    >>> sorted(tiers.stats())
    ['decompose', 'disk', 'map_block']
    """

    def __init__(
        self,
        *,
        cache_dir: "str | os.PathLike[str] | None" = None,
        decompose_lru: int = 512,
        map_block_lru: int = 256,
    ):
        self.decompose = LRUCache(decompose_lru, name="decompose", register=False)
        self.map_block = LRUCache(map_block_lru, name="map_block", register=False)
        self._by_tag = {"decompose": self.decompose, "map_block": self.map_block}
        self.disk: DiskCache | None = None
        if cache_dir is not None:
            self.disk = DiskCache(Path(cache_dir).expanduser() / _DB_NAME)

    # -- the lookup policy -------------------------------------------------
    def lookup(self, key: tuple) -> tuple:
        """``(value, source)`` for ``key``; never computes.

        ``source`` is ``"memory"``, ``"disk"`` or ``None`` (a miss, with
        ``value`` ``None``).  The disk tier is consulted only on an LRU
        miss.
        """
        lru = self._by_tag[key[0]]
        value = lru.get(key)
        if value is not None:
            return value, "memory"
        if self.disk is None:
            return None, None
        value = self.disk.get(stable_digest(key))
        if value is None:
            return None, None
        lru.put(key, value)
        return value, "disk"

    def store(self, key: tuple, value: Any) -> None:
        """Write ``key -> value`` through the LRU and the disk tier."""
        self._by_tag[key[0]].put(key, value)
        if self.disk is not None:
            self.disk.put(stable_digest(key), value)

    def resolve(self, key: tuple, compute: "Callable[[], Any]") -> Any:
        """The cached value for ``key``, computing and storing it on a miss."""
        value, _source = self.lookup(key)
        if value is None:
            value = compute()
            self.store(key, value)
        return value

    # -- observability / lifecycle ---------------------------------------
    def stats(self) -> dict:
        """The canonical per-tiers statistics shape.

        ``{"decompose": ..., "map_block": ..., "disk": ...}`` — the two
        LRU caches' counters plus the disk tier's (or
        ``{"enabled": False}`` when persistence is off).
        """
        return {
            "decompose": self.decompose.stats(),
            "map_block": self.map_block.stats(),
            "disk": self.disk.stats() if self.disk is not None else {"enabled": False},
        }

    def clear(self) -> None:
        """Drop both LRUs (counters included) and delete the disk store."""
        self.decompose.clear()
        self.map_block.clear()
        if self.disk is not None:
            self.disk.clear()

    def __repr__(self) -> str:
        where = "off" if self.disk is None else self.disk.path.parent
        return f"CacheTiers(disk={where})"


# ----------------------------------------------------------------------
# The shared pure-function caches
# ----------------------------------------------------------------------
def shared_cache_stats() -> dict[str, dict]:
    """Statistics of the pure-function caches every session shares.

    The instantiation/manipulation/hint caches are keyed by exact
    inputs and hold platform-independent derivations, so they are
    process-wide singletons rather than session state.
    """
    return {cache.name: cache.stats() for cache in _REGISTRY}


def clear_shared_caches() -> None:
    """Empty the shared pure-function caches (counters included).

    ``MappingSession.clear_caches()`` calls this after clearing its own
    :class:`CacheTiers`; benchmarks and tests call it for a cold start.
    """
    for cache in _REGISTRY:
        cache.clear()
