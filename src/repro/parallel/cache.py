"""The solve cache: fingerprint-keyed reuse of pebbling answers.

Re-solving an identical component pays full exponential cost every time;
this module makes the second solve O(lookup).  Entries are keyed by

    ``<component fingerprint> : <method> : <options digest>``

(:mod:`repro.parallel.fingerprint` defines the structural fingerprint;
the options digest covers the solver options that can change the answer,
e.g. ``node_budget`` for exact search).

Two tiers:

- an **in-memory LRU** (default 1024 entries) — always on, per-process;
- an optional **SQLite persistent tier** — survives the process, shares
  the storage idiom of :mod:`repro.obs.registry` (one small schema, the
  database is a cache and never a source of truth: deleting it loses
  nothing but warm-start time).

Only *clean* results are cached: status ``optimal`` or ``complete``, no
degradation-ladder steps.  A budget-truncated answer reflects that run's
budget, not the instance, so it is never served to a future caller.

Lookups and stores are observable (``cache.hit`` / ``cache.miss`` events,
``parallel.cache.*`` counters).  A cache is an argument of the batch
pipeline only (``solve_many(..., cache=)``, the solve server): the
planner consults it once per unique component and stores what it
solved.  A plain :func:`repro.core.solvers.registry.solve` never touches
a cache.
"""

from __future__ import annotations

import json
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.core.scheme import PebblingScheme
from repro.core.solvers.registry import SolveResult
from repro.errors import SchemeError
from repro.graphs.components import Decomposition, decompose
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import recorder as obs_recorder
from repro.parallel.fingerprint import (
    AnyGraph,
    CanonicalForm,
    canonical_form,
    decode_scheme,
    encode_scheme,
)
from repro.runtime.anytime import STATUS_COMPLETE, STATUS_OPTIMAL
from repro.runtime.retry import RetryPolicy

CACHE_SCHEMA = "repro-solve-cache/v1"

DEFAULT_CAPACITY = 1024

# Statuses a cached entry may carry; anything else is a budget artifact.
CACHEABLE_STATUSES = (STATUS_OPTIMAL, STATUS_COMPLETE)

_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS solve_cache (
    key TEXT PRIMARY KEY,
    fingerprint TEXT NOT NULL,
    method TEXT NOT NULL,
    payload TEXT NOT NULL,
    created_unix REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_solve_cache_fingerprint
    ON solve_cache (fingerprint);
"""


@dataclass(frozen=True)
class CacheEntry:
    """One cached solve, label-free (scheme stored as index pairs)."""

    method: str
    optimal: bool
    status: str
    raw_cost: int
    jumps: int
    scheme: tuple[tuple[int, int], ...]

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": CACHE_SCHEMA,
            "method": self.method,
            "optimal": self.optimal,
            "status": self.status,
            "raw_cost": self.raw_cost,
            "jumps": self.jumps,
            "scheme": [list(pair) for pair in self.scheme],
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CacheEntry":
        return cls(
            method=payload["method"],
            optimal=bool(payload["optimal"]),
            status=payload["status"],
            raw_cost=int(payload["raw_cost"]),
            jumps=int(payload["jumps"]),
            scheme=tuple((int(i), int(j)) for i, j in payload["scheme"]),
        )


@dataclass(frozen=True)
class CacheToken:
    """One solve's cache identity, built once by :func:`cache_token`.

    :meth:`SolveCache.consult` reads it and the post-solve
    :meth:`SolveCache.store` reuses it, so a solve is fingerprinted once
    and a lookup walks no graph.  ``form`` is the canonical form a hit
    rehydrates onto; ``betti`` is the graph's ``β₀``, so a hit's
    ``π = π̂ − β₀`` needs no graph walk.
    """

    key: str
    form: CanonicalForm
    method: str
    betti: int


def options_digest(options: dict[str, Any]) -> str:
    """A deterministic digest of the solver options that shape answers.

    These are the settings a batch forwards to every component solve
    (:data:`repro.core.solvers.registry.ANSWER_SETTINGS`: ``node_budget``,
    ``exact_edge_limit``); the batch deadline is not among them.  They
    are folded into the key so distinct configurations never collide.
    """
    if not options:
        return "-"
    return ",".join(f"{k}={options[k]!r}" for k in sorted(options))


def cache_key(form: CanonicalForm, method: str, options: dict[str, Any]) -> str:
    return f"{form.fingerprint}:{method}:{options_digest(options)}"


def cache_token(
    graph: AnyGraph | Decomposition, method: str, options: dict[str, Any]
) -> CacheToken:
    """The cache identity of solving ``graph``: its canonical form with
    isolated vertices left out (they carry no edges, so they never change
    an answer), keyed by method and options.  A graph with no isolated
    vertices (every batch component) is fingerprinted as is, uncopied."""
    parts = decompose(graph)
    working = parts.graph
    if working.isolated_vertices():
        working = working.without_isolated_vertices()
    form = canonical_form(working)
    return CacheToken(
        key=cache_key(form, method, options),
        form=form,
        method=method,
        betti=parts.betti,
    )


def entry_from_result(
    result: SolveResult, form: CanonicalForm
) -> CacheEntry | None:
    """Convert a solve result into a cacheable entry, or ``None`` when
    the result must not be cached (degraded, or scheme not encodable)."""
    if result.status not in CACHEABLE_STATUSES:
        return None
    if result.provenance is not None and result.provenance.degradations:
        return None
    try:
        encoded = encode_scheme(result.scheme, form)
    except SchemeError:
        return None
    return CacheEntry(
        method=result.method,
        optimal=result.optimal,
        status=result.status,
        raw_cost=result.raw_cost,
        jumps=result.jumps,
        scheme=encoded,
    )


def result_from_entry(entry: CacheEntry, token: CacheToken) -> SolveResult:
    """Rehydrate a cached entry onto the consulting graph's canonical form
    (same fingerprint); ``π = π̂ − β₀`` with ``β₀`` from the token."""
    return SolveResult(
        scheme=decode_scheme(entry.scheme, token.form),
        method=entry.method,
        effective_cost=entry.raw_cost - token.betti,
        raw_cost=entry.raw_cost,
        jumps=entry.jumps,
        optimal=entry.optimal,
        status=entry.status,
    )


class LRUCache:
    """The in-memory tier: a plain bounded LRU over entry payloads."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> CacheEntry | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, entry: CacheEntry) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


# Concurrent-access posture of the persistent tier.  A long-lived server
# has many threads/processes sharing one cache file, so the tier must
# tolerate SQLITE_BUSY instead of assuming one short-lived writer.
DEFAULT_BUSY_TIMEOUT = 5.0

# Lock-contention retries follow the shared runtime policy (bounded
# exponential backoff, jitter-free so the curve is exact in tests); the
# controller binds to the *ambient* budget, so a request already out of
# deadline never sleeps on a locked cache — it degrades to a miss now.
LOCKED_RETRY_POLICY = RetryPolicy(
    max_attempts=4, base_delay=0.01, multiplier=2.0, max_delay=0.25, jitter=0.0
)
RETRY_SITE_LOCKED = "cache.sqlite_locked"


def _is_locked(exc: sqlite3.OperationalError) -> bool:
    message = str(exc).lower()
    return "locked" in message or "busy" in message


class SQLiteCacheTier:
    """The persistent tier: one table, fsync'd by SQLite itself.

    Follows the :mod:`repro.obs.registry` storage pattern — tiny explicit
    schema, ``:memory:`` supported for tests, the file is disposable.

    Hardened for concurrent access from a long-lived server: the
    connection opens in **WAL mode** with a busy timeout (readers never
    block writers and vice versa), it is shared across threads
    (``check_same_thread=False`` — the server consults from its event
    loop and helper threads), and every get/put retries
    ``SQLITE_BUSY``/``SQLITE_LOCKED`` under the shared
    :data:`LOCKED_RETRY_POLICY` (:mod:`repro.runtime.retry`), bounded by
    the ambient budget's deadline.  A read that stays locked degrades to
    a **miss**; a write that stays locked is **dropped** (and counted) —
    the tier is a cache, losing an entry loses warm-start time, never
    correctness.
    """

    def __init__(
        self,
        path: str | Path = ":memory:",
        busy_timeout: float = DEFAULT_BUSY_TIMEOUT,
    ) -> None:
        self.path = str(path)
        if self.path != ":memory:":
            parent = Path(self.path).resolve().parent
            parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(
            self.path, timeout=busy_timeout, check_same_thread=False
        )
        self._conn.execute(f"PRAGMA busy_timeout = {int(busy_timeout * 1000)}")
        if self.path != ":memory:":
            # WAL lets concurrent readers proceed under a writer; NORMAL
            # sync is safe with WAL and halves fsyncs on the hot path.
            self._conn.execute("PRAGMA journal_mode = WAL")
            self._conn.execute("PRAGMA synchronous = NORMAL")
        self._conn.executescript(_SCHEMA_SQL)

    def close(self) -> None:
        self._conn.close()

    def _with_locked_retry(self, operation):
        """Run ``operation`` under :data:`LOCKED_RETRY_POLICY` retries on
        lock contention.

        Returns ``(value, succeeded)``; ``succeeded`` is False only when
        the policy gave up — attempts exhausted *or* the ambient budget's
        deadline would be outlived by the next sleep.  Giving up is never
        an error here: a read becomes a miss, a write is dropped.
        """
        controller = LOCKED_RETRY_POLICY.controller(RETRY_SITE_LOCKED)
        while True:
            try:
                return operation(), True
            except sqlite3.OperationalError as exc:
                if not _is_locked(exc):
                    raise
                delay = controller.next_delay(reason=type(exc).__name__)
                if delay is None:
                    if obs_recorder.ON:
                        obs_metrics.inc("parallel.cache.locked_giveups")
                    return None, False
                if obs_recorder.ON:
                    obs_metrics.inc("parallel.cache.locked_retries")
                time.sleep(delay)

    def get(self, key: str) -> CacheEntry | None:
        def _read():
            return self._conn.execute(
                "SELECT payload FROM solve_cache WHERE key = ?", (key,)
            ).fetchone()

        row, _ok = self._with_locked_retry(_read)
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
            return CacheEntry.from_dict(payload)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            # A corrupt row is a miss, never a crash: the tier is a cache.
            return None

    def put(self, key: str, fingerprint: str, entry: CacheEntry) -> None:
        def _write():
            self._conn.execute(
                "INSERT OR REPLACE INTO solve_cache "
                "(key, fingerprint, method, payload, created_unix) "
                "VALUES (?, ?, ?, ?, ?)",
                (
                    key,
                    fingerprint,
                    entry.method,
                    json.dumps(entry.as_dict(), sort_keys=True),
                    time.time(),
                ),
            )
            self._conn.commit()

        self._with_locked_retry(_write)

    def __len__(self) -> int:
        row = self._conn.execute("SELECT COUNT(*) FROM solve_cache").fetchone()
        return int(row[0])


@dataclass
class CacheStats:
    """Hit/miss/store counts, split by serving tier."""

    memory_hits: int = 0
    persistent_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.persistent_hits

    def as_dict(self) -> dict[str, int]:
        return {
            "memory_hits": self.memory_hits,
            "persistent_hits": self.persistent_hits,
            "misses": self.misses,
            "stores": self.stores,
        }


class SolveCache:
    """The two-tier solve cache the batch pipeline consults.

    ``consult(token)`` returns ``(hit_or_None, token)``; a later
    ``store(token, result)`` records a clean result under the same key.
    Hits found only in the persistent tier are promoted into memory.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        path: str | Path | None = None,
    ) -> None:
        self.memory = LRUCache(capacity)
        self.persistent = SQLiteCacheTier(path) if path is not None else None
        self.stats = CacheStats()
        # One instance may be shared by a server's event loop and helper
        # threads; the lock keeps the LRU's read-modify-write sequences
        # and the stats counters coherent (SQLite has its own handling).
        self._lock = threading.Lock()

    def close(self) -> None:
        if self.persistent is not None:
            self.persistent.close()

    def __enter__(self) -> "SolveCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the consult/store pair the batch planner calls ---------------
    def consult(
        self, token: CacheToken
    ) -> tuple[SolveResult | None, CacheToken]:
        key = token.key
        tier = "memory"
        with self._lock:
            entry = self.memory.get(key)
        if entry is None and self.persistent is not None:
            entry = self.persistent.get(key)
            tier = "persistent"
            if entry is not None:
                with self._lock:
                    self.memory.put(key, entry)
        if entry is None:
            with self._lock:
                self.stats.misses += 1
            if obs_recorder.ON:
                obs_metrics.inc("parallel.cache.misses")
                obs_events.emit(
                    obs_events.EVENT_CACHE_MISS,
                    fingerprint=token.form.fingerprint[:12],
                    method=token.method,
                )
            return None, token
        with self._lock:
            if tier == "memory":
                self.stats.memory_hits += 1
            else:
                self.stats.persistent_hits += 1
        if obs_recorder.ON:
            obs_metrics.inc("parallel.cache.hits")
            obs_metrics.inc(f"parallel.cache.hits.{tier}")
            obs_events.emit(
                obs_events.EVENT_CACHE_HIT,
                fingerprint=token.form.fingerprint[:12],
                method=token.method,
                tier=tier,
            )
        return result_from_entry(entry, token), token

    def store(self, token: CacheToken, result: SolveResult) -> bool:
        """Record ``result`` under ``token``; True when actually cached."""
        entry = entry_from_result(result, token.form)
        if entry is None:
            return False
        with self._lock:
            self.memory.put(token.key, entry)
        if self.persistent is not None:
            self.persistent.put(token.key, token.form.fingerprint, entry)
        with self._lock:
            self.stats.stores += 1
        if obs_recorder.ON:
            obs_metrics.inc("parallel.cache.stores")
        return True


def default_cache_path(root: str | Path = ".") -> Path:
    """The conventional on-disk location for a persistent solve cache."""
    return Path(root) / ".solve-cache.db"


__all__ = [
    "CACHEABLE_STATUSES",
    "CacheEntry",
    "CacheStats",
    "CacheToken",
    "LOCKED_RETRY_POLICY",
    "LRUCache",
    "SQLiteCacheTier",
    "SolveCache",
    "cache_key",
    "cache_token",
    "default_cache_path",
    "entry_from_result",
    "options_digest",
    "result_from_entry",
]
