"""Tests for the metrics registry (repro.obs.metrics)."""

import json

from repro import obs
from repro.obs import metrics


class TestDisabled:
    def test_disabled_by_default(self):
        assert not obs.is_enabled()

    def test_disabled_recording_is_noop(self):
        metrics.inc("c")
        metrics.set_gauge("g", 1.0)
        metrics.observe("h", 2.0)
        snap = metrics.snapshot()
        assert snap == {
            "schema": metrics.SNAPSHOT_SCHEMA,
            "enabled": False,
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestCounters:
    def test_inc_defaults_to_one(self):
        obs.enable()
        metrics.inc("solver.calls")
        metrics.inc("solver.calls")
        assert metrics.counter("solver.calls") == 2

    def test_inc_amount(self):
        obs.enable()
        metrics.inc("nodes", 41)
        metrics.inc("nodes", 1)
        assert metrics.counter("nodes") == 42

    def test_unset_counter_reads_zero(self):
        assert metrics.counter("nope") == 0


class TestGaugesAndHistograms:
    def test_gauge_last_write_wins(self):
        obs.enable()
        metrics.set_gauge("size", 10)
        metrics.set_gauge("size", 3)
        assert metrics.METRICS.gauge("size") == 3

    def test_histogram_summary(self):
        obs.enable()
        for value in (1, 2, 9):
            metrics.observe("m", value)
        h = metrics.METRICS.histogram("m")
        assert h.count == 3
        assert h.total == 12
        assert h.min == 1
        assert h.max == 9
        assert h.mean == 4

    def test_empty_histogram_mean_zero(self):
        from repro.obs.metrics import HistogramSummary

        assert HistogramSummary().mean == 0.0


class TestQuantileHistograms:
    def _hist(self, values):
        from repro.obs.metrics import HistogramSummary

        h = HistogramSummary()
        for value in values:
            h.observe(value)
        return h

    def test_bucket_counts_sum_to_count(self):
        h = self._hist([0.1, 1, 5, 5, 90, 1e6, 0, -3])
        assert sum(h.buckets.values()) == h.count == 8

    def test_bucket_index_boundaries_are_log_spaced(self):
        from repro.obs.metrics import bucket_index, bucket_upper_bound

        for value in (0.01, 0.5, 1, 2, 3, 1000, 1e9):
            index = bucket_index(value)
            assert value <= bucket_upper_bound(index)
            # The next bucket down would not hold the value.
            assert value > bucket_upper_bound(index - 1) or value <= 0

    def test_nonpositive_values_share_underflow_bucket(self):
        from repro.obs.metrics import bucket_index

        assert bucket_index(0) == bucket_index(-7.5)
        h = self._hist([0, -1, 2])
        assert h.bucket_counts()["le_0"] == 2

    def test_quantiles_within_observed_range(self):
        h = self._hist(range(1, 101))
        for q in (0.5, 0.9, 0.99):
            estimate = h.quantile(q)
            assert 1 <= estimate <= 100

    def test_quantile_estimates_are_ordered_and_close(self):
        h = self._hist(range(1, 101))
        p50, p90, p99 = h.quantile(0.5), h.quantile(0.9), h.quantile(0.99)
        assert p50 <= p90 <= p99
        # Log-spaced buckets bound the error by a factor of sqrt(2).
        assert 50 / 1.5 <= p50 <= 50 * 1.5
        assert 90 / 1.5 <= p90 <= 90 * 1.5

    def test_single_value_quantiles_exact(self):
        h = self._hist([42])
        assert h.quantile(0.5) == 42
        assert h.quantile(0.99) == 42

    def test_empty_histogram_quantile_none(self):
        assert self._hist([]).quantile(0.5) is None

    def test_invalid_quantile_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            self._hist([1]).quantile(0.0)
        with pytest.raises(ValueError):
            self._hist([1]).quantile(1.5)

    def test_as_dict_carries_buckets_and_quantiles(self):
        h = self._hist([1, 2, 9])
        payload = h.as_dict()
        assert payload["count"] == 3
        assert sum(payload["buckets"].values()) == 3
        assert payload["p50"] is not None
        assert payload["p99"] <= 9

    def test_buckets_deterministic_across_runs(self):
        first = self._hist([3.7, 0.2, 1e4]).as_dict()
        second = self._hist([3.7, 0.2, 1e4]).as_dict()
        assert first == second


class TestSnapshotSchema:
    def test_snapshot_carries_schema_and_enabled_state(self):
        snap = metrics.snapshot()
        assert snap["schema"] == "repro-metrics/v2"
        assert snap["enabled"] is False
        obs.enable()
        assert metrics.snapshot()["enabled"] is True

    def test_to_json_carries_schema(self):
        obs.enable()
        payload = json.loads(metrics.to_json())
        assert payload["schema"] == metrics.SNAPSHOT_SCHEMA


class TestSnapshotDeterminism:
    def _record(self):
        metrics.inc("b.second")
        metrics.inc("a.first", 3)
        metrics.set_gauge("z", 1.5)
        metrics.observe("h", 2)
        metrics.observe("h", 4)

    def test_snapshot_keys_sorted(self):
        obs.enable()
        self._record()
        snap = metrics.snapshot()
        assert list(snap["counters"]) == sorted(snap["counters"])

    def test_to_json_byte_identical_across_identical_runs(self):
        obs.enable()
        self._record()
        first = metrics.to_json()
        obs.reset()
        self._record()
        second = metrics.to_json()
        assert first == second

    def test_to_json_parses_and_round_trips(self):
        obs.enable()
        self._record()
        payload = json.loads(metrics.to_json())
        assert payload["counters"]["a.first"] == 3
        assert payload["histograms"]["h"]["count"] == 2

    def test_reset_drops_values_keeps_flag(self):
        obs.enable()
        metrics.inc("x")
        obs.reset()
        assert metrics.counter("x") == 0
        assert obs.is_enabled()
