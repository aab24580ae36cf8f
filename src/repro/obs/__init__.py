"""Observability: spans, metrics, run manifests, and the bench harness.

The measurement layer the perf roadmap hangs off.  Its modules:

- :mod:`repro.obs.recorder` — the one on/off switch every collector
  reads; :func:`enable`, :func:`disable`, :func:`is_enabled`,
  :func:`reset`, and :func:`recording` here are its only controls;
- :mod:`repro.obs.trace` — hierarchical spans (context-manager API,
  ``perf_counter_ns`` durations, process-global collector), including
  detached spans for async servers and cross-process span adoption;
- :mod:`repro.obs.context` — the ambient :class:`TraceContext`
  (contextvars-based) that stamps every span with a request-scoped
  ``trace_id`` and survives the wire protocol, the worker-pool
  boundary, and the request journal;
- :mod:`repro.obs.telemetry` — the live rolling-window aggregator
  behind the solve server's ``metrics`` op and its Prometheus
  text-format v0.0.4 exposition (``repro top`` renders it);
- :mod:`repro.obs.metrics` — named counters/gauges/histogram summaries
  with deterministic, byte-stable JSON snapshots;
- :mod:`repro.obs.events` — the structured event log (``events.jsonl``:
  budget trips, ladder degradations, solver phases, injected faults),
  seq-ordered and span/run correlated;
- :mod:`repro.obs.planquality` — structured EXPLAIN records
  (``plans.jsonl``) and per-predicate estimate calibration;
- :mod:`repro.obs.manifest` — per-run artifact directories
  (``runs/{run_id}/manifest.json`` + ``metrics.json`` + ``report.md``)
  carrying git SHA, seed, and python version, written atomically;
- :mod:`repro.obs.bench` — the ``repro bench`` harness that feeds the
  ``BENCH_<date>.json`` perf trajectory (``benchmarks/results/``);
- :mod:`repro.obs.registry` — the SQLite run registry over ``runs/``
  plus trend/compare analytics (the ``repro runs`` commands);
- :mod:`repro.obs.report_html` — the self-contained cross-run HTML
  dashboard (``repro report --html``);
- :mod:`repro.obs.profile` — self-time attribution over recorded spans
  (the ``repro profile`` table);
- :mod:`repro.obs.export` — trace serialization to Chrome trace-event
  JSON (Perfetto), folded stacks (flamegraphs), and JSONL
  (the ``repro trace`` command), plus per-request trace assembly from
  a server run's ``trace.jsonl`` (``repro runs trace-request``).

Spans, metrics, events, and plan records share that one switch, which is
**off by default**.  Every instrumentation hook in the solvers, engine,
joins, and storage layers is behaviour-neutral: with observability
disabled the hooks cost one attribute check, and with it enabled they
record without perturbing any result (property-tested).

>>> from repro import obs
>>> obs.enable()
>>> with obs.span("example"):
...     obs.inc("example.calls")
>>> obs.counter("example.calls")
1
>>> obs.disable(); obs.reset()
"""

import contextlib
from typing import Iterator

from repro.obs.metrics import (
    METRICS,
    MetricsRegistry,
    counter,
    inc,
    observe,
    set_gauge,
    snapshot,
)
from repro.obs.context import TraceContext
from repro.obs.telemetry import TelemetryWindow
from repro.obs.trace import TRACER, Span, Tracer, span, spans
from repro.obs.export import export_trace, write_trace

# NOTE: the submodule's convenience function ``profile()`` is *not*
# re-exported: binding it here would shadow the ``repro.obs.profile``
# module attribute.  Call ``repro.obs.profile.profile()`` instead.
from repro.obs.profile import Profile, ProfileRow, profile_spans
from repro.obs import recorder as _recorder
from repro.obs.events import EVENTS as _EVENTS
from repro.obs.planquality import PLANS as _PLANS


def enable() -> None:
    """Turn on span, metric, event, and plan recording (process-global)."""
    _recorder.ON = True


def disable() -> None:
    """Turn every collector off; recorded data is kept."""
    _recorder.ON = False


def is_enabled() -> bool:
    """True while the collectors are recording."""
    return _recorder.ON


def reset() -> None:
    """Drop all recorded spans, metrics, events, and plans (switch unchanged)."""
    TRACER.reset()
    METRICS.reset()
    _EVENTS.reset()
    _PLANS.reset()


@contextlib.contextmanager
def recording() -> Iterator[None]:
    """Record from a clean slate for the ``with`` body.

    Resets every collector and turns recording on; on exit the switch
    returns to its prior state while the recorded data stays readable.
    """
    was_on = _recorder.ON
    reset()
    enable()
    try:
        yield
    finally:
        _recorder.ON = was_on


__all__ = [
    "METRICS",
    "MetricsRegistry",
    "Profile",
    "ProfileRow",
    "Span",
    "TRACER",
    "TelemetryWindow",
    "TraceContext",
    "Tracer",
    "counter",
    "disable",
    "enable",
    "export_trace",
    "inc",
    "is_enabled",
    "observe",
    "profile_spans",
    "recording",
    "reset",
    "set_gauge",
    "snapshot",
    "span",
    "spans",
    "write_trace",
]
