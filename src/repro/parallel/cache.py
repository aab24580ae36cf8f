"""The solve cache: fingerprint-keyed reuse of pebbling answers.

Re-solving an identical component pays full exponential cost every time;
this module makes the second solve O(lookup).  Entries are keyed by

    ``<component fingerprint> : <method> : <options digest>``

(:mod:`repro.parallel.fingerprint` defines the structural fingerprint;
the options digest covers the solver options that can change the answer,
e.g. ``seed`` for annealing or ``node_budget`` for exact search).

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
``parallel.cache.*`` counters) and installation is ambient and scoped:
:func:`use_cache` mirrors :func:`repro.runtime.budget.use_budget`, so the
CLI threads one cache through bench scenarios without changing solver
signatures.  No cache installed means byte-for-byte legacy behaviour.
"""

from __future__ import annotations

import contextlib
import json
import sqlite3
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.core.scheme import PebblingScheme
from repro.core.solvers.registry import SolveResult
from repro.errors import SchemeError
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
    """Everything a post-solve ``store`` needs from the pre-solve lookup,
    so the canonical form is computed once per solve, not twice."""

    key: str
    form: CanonicalForm
    graph: AnyGraph


def options_digest(options: dict[str, Any]) -> str:
    """A deterministic digest of the solver options that shape answers.

    Budget options never reach here (the registry strips them first);
    whatever remains (``seed``, ``steps``, ``node_budget``,
    ``exact_edge_limit``, …) is folded into the key so distinct
    configurations never collide.
    """
    if not options:
        return "-"
    return ",".join(f"{k}={options[k]!r}" for k in sorted(options))


def cache_key(form: CanonicalForm, method: str, options: dict[str, Any]) -> str:
    return f"{form.fingerprint}:{method}:{options_digest(options)}"


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


def result_from_entry(
    entry: CacheEntry, graph: AnyGraph, form: CanonicalForm
) -> SolveResult:
    """Rehydrate a cached entry against ``graph`` (same fingerprint)."""
    scheme = decode_scheme(entry.scheme, form)
    working = graph.without_isolated_vertices()
    return SolveResult(
        scheme=scheme,
        method=entry.method,
        effective_cost=scheme.effective_cost(working),
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
    """The two-tier solve cache the registry and the pool consult.

    ``consult`` returns ``(hit_or_None, token)``; a later ``store(token,
    result)`` records a clean result under the same key.  Hits found only
    in the persistent tier are promoted into memory.
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

    # -- the consult/store pair the registry calls ---------------------
    def consult(
        self, graph: AnyGraph, method: str, options: dict[str, Any]
    ) -> tuple[SolveResult | None, CacheToken]:
        form = canonical_form(graph.without_isolated_vertices())
        key = cache_key(form, method, options)
        token = CacheToken(key=key, form=form, graph=graph)
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
                    fingerprint=form.fingerprint[:12],
                    method=method,
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
                fingerprint=form.fingerprint[:12],
                method=method,
                tier=tier,
            )
        return result_from_entry(entry, graph, form), token

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


# -- ambient cache stack ----------------------------------------------------
#
# Mirrors repro.runtime.budget's ambient stack with one twist:
# ``use_cache(None)`` *masks* any outer cache (pushes an explicit None),
# which is how solve_many keeps its per-component solves from re-consulting
# the cache it already consulted.

_CACHE_STACK: list[SolveCache | None] = []


def current_cache() -> SolveCache | None:
    """The innermost ambient cache installed by :func:`use_cache`."""
    return _CACHE_STACK[-1] if _CACHE_STACK else None


@contextlib.contextmanager
def use_cache(cache: SolveCache | None) -> Iterator[SolveCache | None]:
    """Install ``cache`` as the ambient solve cache for the ``with`` body.

    ``None`` is an explicit mask: inside the body, :func:`current_cache`
    returns ``None`` even when an outer cache is installed.
    """
    _CACHE_STACK.append(cache)
    try:
        yield cache
    finally:
        _CACHE_STACK.pop()


def _reset_ambient_cache() -> None:
    """Drop any inherited ambient cache (worker-process prologue: a forked
    child must not reuse the parent's SQLite connection)."""
    _CACHE_STACK.clear()


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
    "current_cache",
    "default_cache_path",
    "entry_from_result",
    "options_digest",
    "result_from_entry",
    "use_cache",
]
