"""Parallel, cache-aware batch solving (``docs/PARALLEL.md``).

The public surface:

- :func:`solve_many` — solve a batch of graphs, fanning per-component
  work across a process pool with deterministic reassembly;
- :class:`SolveCache` / :func:`default_cache_path` —
  the two-tier (LRU + SQLite) solve cache keyed by canonical component
  fingerprints;
- :func:`fingerprint` / :func:`canonical_form` — the structural identity
  the cache keys on.

Correctness rests on Lemma 2.2 (per-component additivity of the
pebbling cost); see :mod:`repro.parallel.service` for the argument.
"""

from repro.parallel.cache import (
    CACHE_SCHEMA,
    CacheStats,
    SolveCache,
    default_cache_path,
)
from repro.parallel.fingerprint import CanonicalForm, canonical_form, fingerprint
from repro.parallel.pool import WorkerPool
from repro.parallel.service import (
    assemble_components,
    rebind_result,
    solve_many,
    split_deadline,
)

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "CanonicalForm",
    "SolveCache",
    "WorkerPool",
    "assemble_components",
    "canonical_form",
    "default_cache_path",
    "fingerprint",
    "rebind_result",
    "solve_many",
    "split_deadline",
]
