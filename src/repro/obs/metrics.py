"""Named counters, gauges, and histogram summaries.

The numeric half of the observability layer: a process-global registry of

- **counters** — monotonically increasing integers (solver search nodes,
  pruned branches, planner sample pairs, page fetches, cache hits);
- **gauges** — last-written scalar values (current instance size, chosen
  thresholds);
- **histograms** — streaming summaries (count / total / min / max plus
  deterministic log-spaced bucket counts and p50/p90/p99 estimates) of a
  value distribution, e.g. per-query output sizes.

Everything is deterministic: snapshots hold no timestamps and serialize
with sorted keys, so two runs of the same seeded workload produce
**byte-identical** ``metrics.json`` files — a property the test-suite
asserts.  Durations therefore never go through this module; they belong
to :mod:`repro.obs.trace` and the benchmark harness.  Histogram buckets
are log-spaced (boundaries at powers of ``sqrt(2)``), so quantiles are
estimated to within a factor of ~1.42 without storing samples — the
bucket counts, like everything else, are a pure function of the observed
values.

Snapshots carry a ``schema`` version (``repro-metrics/v2``) and the
recording switch's state (``enabled``) so downstream tools can validate
what they read; v1 snapshots (no schema field) predate both.

Like tracing, recording starts off (:mod:`repro.obs.recorder`) and every
recording call returns after one attribute check, so hooks are safe to
leave in hot paths permanently.

>>> from repro import obs
>>> from repro.obs import metrics
>>> obs.reset(); obs.enable()
>>> metrics.inc("solver.calls")
>>> metrics.inc("solver.search_nodes", 41)
>>> metrics.observe("engine.output_size", 7)
>>> metrics.snapshot()["counters"]["solver.search_nodes"]
41
>>> obs.disable(); obs.reset()
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.obs import recorder as obs_recorder

SNAPSHOT_SCHEMA = "repro-metrics/v2"

# Bucket boundaries sit at 2**(index / _BUCKETS_PER_DOUBLING): two buckets
# per doubling bounds the quantile estimation error by a factor of
# sqrt(2) while keeping bucket counts small for any realistic range.
_BUCKETS_PER_DOUBLING = 2

# Values <= 0 cannot be log-bucketed; they share one underflow bucket
# whose upper bound is 0 (floats sort below every int bucket index).
_UNDERFLOW = float("-inf")


def bucket_index(value: float) -> float:
    """The log-spaced bucket holding ``value``: the smallest index ``i``
    with ``value <= 2**(i / 2)``, or the underflow bucket for ``<= 0``."""
    if value <= 0:
        return _UNDERFLOW
    return math.ceil(_BUCKETS_PER_DOUBLING * math.log2(value))


def bucket_upper_bound(index: float) -> float:
    """The inclusive upper boundary of a bucket returned by
    :func:`bucket_index`."""
    if index == _UNDERFLOW:
        return 0.0
    return 2.0 ** (index / _BUCKETS_PER_DOUBLING)


@dataclass
class HistogramSummary:
    """A streaming summary of observed values.

    Tracks count/total/min/max exactly, plus per-bucket counts over the
    deterministic log-spaced grid of :func:`bucket_index`, from which
    :meth:`quantile` estimates p50/p90/p99 without storing samples.
    """

    count: int = 0
    total: float = 0.0
    min: float | None = None
    max: float | None = None
    buckets: dict[float, int] = field(default_factory=dict)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        index = bucket_index(value)
        self.buckets[index] = self.buckets.get(index, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """An estimate of the ``q``-quantile (``0 < q <= 1``) from the
        bucket counts: the upper bound of the bucket where the target
        rank falls, clamped into ``[min, max]`` so estimates never leave
        the observed range.  ``None`` on an empty histogram."""
        if not self.count:
            return None
        if not 0 < q <= 1:
            raise ValueError(f"quantile must be in (0, 1], got {q}")
        target = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                bound = bucket_upper_bound(index)
                assert self.min is not None and self.max is not None
                return min(max(bound, self.min), self.max)
        raise AssertionError("bucket counts always sum to count")

    def bucket_counts(self) -> dict[str, int]:
        """Bucket counts keyed by a stable upper-bound label
        (``le_0`` for the underflow bucket, ``le_<bound>`` otherwise)."""
        labels: dict[str, int] = {}
        for index in sorted(self.buckets):
            if index == _UNDERFLOW:
                labels["le_0"] = self.buckets[index]
            else:
                labels[f"le_{bucket_upper_bound(index):.6g}"] = self.buckets[index]
        return labels

    def as_dict(self) -> dict[str, Any]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": self.bucket_counts(),
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class MetricsRegistry:
    """A registry of named metrics, recording while the shared switch is on.

    Normal use goes through the module-level singleton ``METRICS`` and
    the helper functions below; tests may instantiate private registries.
    """

    def __init__(self) -> None:
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramSummary] = {}
        # The solve server records from its event loop while bench code
        # records from the main thread; the lock keeps read-modify-write
        # updates coherent.  Disabled recording never touches it.
        self._lock = threading.Lock()

    # -- control -------------------------------------------------------
    def reset(self) -> None:
        """Drop all recorded values (the switch is unchanged)."""
        self._counters = {}
        self._gauges = {}
        self._histograms = {}

    # -- recording -----------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (created at 0)."""
        if not obs_recorder.ON:
            return
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        if not obs_recorder.ON:
            return
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Fold ``value`` into the named histogram summary."""
        if not obs_recorder.ON:
            return
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = HistogramSummary()
            histogram.observe(value)

    # -- inspection ----------------------------------------------------
    def counter(self, name: str) -> int:
        return self._counters.get(name, 0)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> HistogramSummary | None:
        return self._histograms.get(name)

    def snapshot(self) -> dict[str, Any]:
        """A plain-dict view with deterministically sorted keys.

        Carries the schema version and the recording switch's state so
        downstream consumers can tell "disabled, hence empty" apart from
        "enabled but nothing recorded" and validate what they parse.
        """
        return {
            "schema": SNAPSHOT_SCHEMA,
            "enabled": obs_recorder.ON,
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._histograms[k].as_dict() for k in sorted(self._histograms)
            },
        }

    def to_json(self) -> str:
        """The snapshot as canonical JSON (sorted keys, 2-space indent).

        Given identical seeded work, two runs produce byte-identical
        output — the reproducibility contract of run manifests.
        """
        return json.dumps(self.snapshot(), sort_keys=True, indent=2) + "\n"


METRICS = MetricsRegistry()


def inc(name: str, amount: int = 1) -> None:
    """Increment a counter on the global registry (no-op when disabled)."""
    METRICS.inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the global registry (no-op when disabled)."""
    METRICS.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the global registry."""
    METRICS.observe(name, value)


def counter(name: str) -> int:
    """Current value of a counter on the global registry (0 if unset)."""
    return METRICS.counter(name)


def snapshot() -> dict[str, Any]:
    """Deterministic plain-dict view of the global registry."""
    return METRICS.snapshot()


def to_json() -> str:
    """Canonical JSON rendering of the global registry's snapshot."""
    return METRICS.to_json()
