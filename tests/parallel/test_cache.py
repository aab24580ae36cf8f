"""The two-tier solve cache: hits must be indistinguishable from solves."""

import sqlite3

import pytest

from repro.core.families import worst_case_family
from repro.core.solvers.registry import solve
from repro.graphs.generators import (
    complete_bipartite,
    random_connected_bipartite,
)
from repro.parallel import cache as cache_mod
from repro.parallel.cache import (
    LOCKED_RETRY_POLICY,
    CacheEntry,
    LRUCache,
    SolveCache,
    SQLiteCacheTier,
    cache_key,
    cache_token,
    entry_from_result,
    options_digest,
)
from repro.parallel.fingerprint import canonical_form
from repro.runtime.anytime import STATUS_BUDGET_EXHAUSTED
from repro.runtime.budget import Budget, use_budget
from repro.runtime.clock import FakeClock


def _result_fingerprint(result):
    return (
        result.scheme.configurations,
        result.effective_cost,
        result.raw_cost,
        result.jumps,
        result.optimal,
        result.status,
    )


class TestKeying:
    def test_options_fold_into_key(self):
        form = canonical_form(worst_case_family(2))
        assert cache_key(form, "exact", {"node_budget": 1}) != cache_key(
            form, "exact", {"node_budget": 2}
        )
        assert cache_key(form, "exact", {}) != cache_key(form, "auto", {})

    def test_digest_order_independent(self):
        assert options_digest({"a": 1, "b": 2}) == options_digest(
            {"b": 2, "a": 1}
        )


class TestLRU:
    def test_eviction_order(self):
        lru = LRUCache(capacity=2)
        entries = {
            name: CacheEntry(
                method="exact",
                optimal=True,
                status="optimal",
                raw_cost=0,
                jumps=0,
                scheme=(),
            )
            for name in "abc"
        }
        lru.put("a", entries["a"])
        lru.put("b", entries["b"])
        assert lru.get("a") is not None  # refresh a; b is now oldest
        lru.put("c", entries["c"])
        assert lru.get("b") is None
        assert lru.get("a") is not None
        assert lru.get("c") is not None


class TestMemoryTier:
    def test_hit_matches_cold_solve(self):
        cache = SolveCache()
        g = worst_case_family(3)
        cold, token = cache.consult(cache_token(g, "auto", {}))
        assert cold is None
        cache.store(token, solve(g, "auto"))
        warm, _ = cache.consult(cache_token(g, "auto", {}))
        assert warm is not None
        assert _result_fingerprint(warm) == _result_fingerprint(solve(g, "auto"))
        assert cache.stats.memory_hits == 1
        assert cache.stats.misses == 1

    def test_hit_across_relabeling(self):
        """A structurally identical graph with different labels hits."""
        cache = SolveCache()
        a = complete_bipartite(2, 3)
        b = a  # same generator; also test a fresh instance
        _, token = cache.consult(cache_token(a, "auto", {}))
        cache.store(token, solve(a, "auto"))
        hit, _ = cache.consult(cache_token(complete_bipartite(2, 3), "auto", {}))
        assert hit is not None
        assert hit.effective_cost == solve(b, "auto").effective_cost

    def test_degraded_results_not_cached(self):
        cache = SolveCache()
        g = worst_case_family(3)
        _, token = cache.consult(cache_token(g, "auto", {}))
        degraded = solve(g, "auto")
        from dataclasses import replace

        assert not cache.store(
            token, replace(degraded, status=STATUS_BUDGET_EXHAUSTED)
        )
        still_miss, _ = cache.consult(cache_token(g, "auto", {}))
        assert still_miss is None


class TestPersistentTier:
    def test_survives_reopen(self, tmp_path):
        db = tmp_path / "solve-cache.db"
        g = random_connected_bipartite(3, 3, 7, seed=5)
        expected = solve(g, "auto")

        first = SolveCache(path=db)
        _, token = first.consult(cache_token(g, "auto", {}))
        first.store(token, expected)
        first.close()

        second = SolveCache(path=db)
        hit, _ = second.consult(cache_token(g, "auto", {}))
        second.close()
        assert hit is not None
        assert _result_fingerprint(hit) == _result_fingerprint(expected)
        assert second.stats.persistent_hits == 1

    def test_promotion_into_memory(self, tmp_path):
        db = tmp_path / "solve-cache.db"
        g = worst_case_family(2)
        seeder = SolveCache(path=db)
        _, token = seeder.consult(cache_token(g, "auto", {}))
        seeder.store(token, solve(g, "auto"))
        seeder.close()

        cache = SolveCache(path=db)
        cache.consult(cache_token(g, "auto", {}))  # persistent hit, promoted
        cache.consult(cache_token(g, "auto", {}))  # now a memory hit
        cache.close()
        assert cache.stats.persistent_hits == 1
        assert cache.stats.memory_hits == 1

    def test_corrupt_row_is_a_miss(self, tmp_path):
        db = tmp_path / "solve-cache.db"
        tier = SQLiteCacheTier(db)
        tier._conn.execute(
            "INSERT INTO solve_cache "
            "(key, fingerprint, method, payload, created_unix)"
            " VALUES ('k', 'f', 'auto', 'not json', 0)"
        )
        tier._conn.commit()
        assert tier.get("k") is None
        tier.close()


class TestLockedRetry:
    """The persistent tier under lock contention: shared-policy retries,
    bounded by the ambient budget, giving up into a miss — never an error."""

    def _tier(self):
        return SQLiteCacheTier(":memory:")

    def test_transient_lock_is_retried_through(self, monkeypatch):
        tier = self._tier()
        sleeps: list[float] = []
        monkeypatch.setattr(cache_mod.time, "sleep", sleeps.append)
        failures = iter([True, True, False])

        def flaky():
            if next(failures):
                raise sqlite3.OperationalError("database is locked")
            return "row"

        assert tier._with_locked_retry(flaky) == ("row", True)
        # jitter=0 in LOCKED_RETRY_POLICY, so the curve is exact.
        assert sleeps == [
            LOCKED_RETRY_POLICY.backoff(0),
            LOCKED_RETRY_POLICY.backoff(1),
        ]
        tier.close()

    def test_persistent_lock_degrades_to_miss(self, monkeypatch):
        tier = self._tier()
        monkeypatch.setattr(cache_mod.time, "sleep", lambda _s: None)

        class LockedConn:
            def execute(self, *args):
                raise sqlite3.OperationalError("database is locked")

        monkeypatch.setattr(tier, "_conn", LockedConn())
        assert tier.get("k") is None  # a locked read is a miss
        entry = CacheEntry(
            method="exact", optimal=True, status="optimal",
            raw_cost=0, jumps=0, scheme=(),
        )
        tier.put("k", "f", entry)  # a locked write is dropped, not raised

    def test_non_lock_errors_propagate(self):
        tier = self._tier()

        def broken():
            raise sqlite3.OperationalError("no such table: solve_cache")

        with pytest.raises(sqlite3.OperationalError):
            tier._with_locked_retry(broken)
        tier.close()

    def test_exhausted_ambient_budget_gives_up_without_sleeping(
        self, monkeypatch
    ):
        """A request already past its deadline must not sleep on a locked
        cache: the controller binds the ambient budget and gives up."""
        tier = self._tier()
        sleeps: list[float] = []
        monkeypatch.setattr(cache_mod.time, "sleep", sleeps.append)

        def locked():
            raise sqlite3.OperationalError("database is locked")

        clock = FakeClock()
        budget = Budget(deadline=0.05, clock=clock).start()
        clock.advance(1.0)  # deadline long gone
        with use_budget(budget):
            assert tier._with_locked_retry(locked) == (None, False)
        assert sleeps == []
        tier.close()


class TestRegistryIntegration:
    def test_no_cache_no_interference(self):
        g = worst_case_family(2)
        assert _result_fingerprint(solve(g, "auto")) == _result_fingerprint(
            solve(g, "auto")
        )


class TestUncacheableSchemes:
    def test_scheme_touching_isolated_vertices_not_cached(self):
        """cache_token() fingerprints the graph minus isolated vertices; a
        scheme is encoded against that form, so any configuration on a
        removed vertex makes the entry uncacheable, not wrong."""
        g = worst_case_family(2)
        cache = SolveCache()
        _, token = cache.consult(cache_token(g, "auto", {}))
        result = solve(g, "auto")
        assert cache.store(token, result)  # normal solves do cache
