"""Live telemetry: rolling-window request aggregation + Prometheus text.

Where :mod:`repro.obs.metrics` is the *deterministic, post-hoc* numeric
record (byte-identical ``metrics.json`` per seed, so never any timings),
this module is the *live* surface of a running solve server: what is the
request rate, the per-op latency distribution, the error and degradation
rates — right now, over the trailing window — and how much work has the
process done since it started.  The server answers the ``metrics``
protocol op (and ``repro top`` renders) from here.

Two layers:

- :class:`TelemetryWindow` — per-op request accounting.  Cumulative
  totals (requests, outcomes, error codes, one latency
  :class:`~repro.obs.metrics.HistogramSummary` per op reusing the
  log-spaced buckets) plus a ring of time slots holding the same shape
  for the trailing window.  The design is **lock-free**: the server
  records from a single thread (its event loop), each record is a
  handful of dict operations atomic under the GIL, and a slot is
  recycled by replacing the ring entry with a fresh object — a reader
  on another thread sees either the old slot or the new one, never a
  half-cleared mix.  No lock sits on the request hot path.
- The **exposition** functions — render counters / gauges / histograms
  as Prometheus text format v0.0.4 (``# HELP`` / ``# TYPE`` comments,
  cumulative ``le`` buckets ending at ``+Inf``, ``_sum`` / ``_count``
  series), plus a parser and structural validator used by ``repro top``,
  the test-suite, and the ``make telemetry-smoke`` gate.

Log-spaced summary buckets convert directly to Prometheus histogram
buckets: the per-bucket counts become cumulative counts at each
``le = 2**(i/2)`` boundary (with the underflow bucket at ``le="0"``),
so quantile error stays the same factor-of-sqrt(2) the offline metrics
promise.
"""

from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.obs.metrics import _UNDERFLOW, HistogramSummary, bucket_upper_bound

CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
EXPOSITION_VERSION = "0.0.4"

# Terminal classification of one served request.
OUTCOMES = ("ok", "degraded", "rejected", "error")

_METRIC_KINDS = ("counter", "gauge", "histogram")


def _merge_into(target: HistogramSummary, source: HistogramSummary) -> None:
    target.count += source.count
    target.total += source.total
    if source.min is not None:
        target.min = source.min if target.min is None else min(target.min, source.min)
    if source.max is not None:
        target.max = source.max if target.max is None else max(target.max, source.max)
    for index, count in source.buckets.items():
        target.buckets[index] = target.buckets.get(index, 0) + count


class _Slot:
    """One time slice of the rolling window (plain dicts, no locking)."""

    __slots__ = ("stamp", "outcomes", "latency")

    def __init__(self, stamp: int) -> None:
        self.stamp = stamp
        self.outcomes: dict[tuple[str, str], int] = {}
        self.latency: dict[str, HistogramSummary] = {}


class TelemetryWindow:
    """Per-op request telemetry: cumulative totals + a trailing window.

    ``window_seconds`` is the span the windowed view (rps, live
    quantiles, error rates) covers, sliced into ``slots`` ring entries;
    finer slicing smooths the window's leading edge at the cost of a few
    more dicts.  ``clock`` is injectable for tests (monotonic seconds).
    """

    def __init__(
        self,
        window_seconds: float = 60.0,
        slots: int = 12,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if window_seconds <= 0:
            raise ValueError(f"window_seconds must be positive, got {window_seconds}")
        if slots <= 0:
            raise ValueError(f"slots must be positive, got {slots}")
        self.window_seconds = float(window_seconds)
        self.slot_seconds = self.window_seconds / slots
        self._clock = clock
        self._slots: list[_Slot] = [_Slot(-1) for _ in range(slots)]
        self.started = clock()
        # Cumulative since construction (Prometheus counter semantics).
        self._requests_total: dict[str, int] = {}
        self._outcomes_total: dict[tuple[str, str], int] = {}
        self._errors_total: dict[tuple[str, str], int] = {}
        self._latency_total: dict[str, HistogramSummary] = {}

    # -- recording -----------------------------------------------------
    def record(
        self,
        op: str,
        latency_ms: float,
        outcome: str = "ok",
        code: str | None = None,
    ) -> None:
        """Fold one served request into the totals and the live window."""
        if outcome not in OUTCOMES:
            outcome = "error"
        self._requests_total[op] = self._requests_total.get(op, 0) + 1
        key = (op, outcome)
        self._outcomes_total[key] = self._outcomes_total.get(key, 0) + 1
        if code:
            error_key = (op, str(code))
            self._errors_total[error_key] = self._errors_total.get(error_key, 0) + 1
        hist = self._latency_total.get(op)
        if hist is None:
            hist = self._latency_total[op] = HistogramSummary()
        hist.observe(latency_ms)

        slot_id = int(self._clock() / self.slot_seconds)
        position = slot_id % len(self._slots)
        slot = self._slots[position]
        if slot.stamp != slot_id:
            # Recycle by replacement: a concurrent reader holds either
            # the stale slot or this fresh one, never a partial clear.
            slot = _Slot(slot_id)
            self._slots[position] = slot
        slot.outcomes[key] = slot.outcomes.get(key, 0) + 1
        slot_hist = slot.latency.get(op)
        if slot_hist is None:
            slot_hist = slot.latency[op] = HistogramSummary()
        slot_hist.observe(latency_ms)

    # -- inspection ----------------------------------------------------
    def uptime_seconds(self) -> float:
        return max(0.0, self._clock() - self.started)

    def requests_total(self, op: str | None = None) -> int:
        if op is not None:
            return self._requests_total.get(op, 0)
        return sum(self._requests_total.values())

    def totals(self) -> dict[str, dict[str, Any]]:
        """Cumulative per-op accounting since construction."""
        out: dict[str, dict[str, Any]] = {}
        for op in sorted(self._requests_total):
            outcomes = {
                outcome: self._outcomes_total.get((op, outcome), 0)
                for outcome in OUTCOMES
            }
            errors = {
                code: count
                for (err_op, code), count in sorted(self._errors_total.items())
                if err_op == op
            }
            out[op] = {
                "requests": self._requests_total[op],
                "outcomes": outcomes,
                "errors": errors,
                "latency": self._latency_total[op],
            }
        return out

    def window(self, now: float | None = None) -> dict[str, dict[str, Any]]:
        """The trailing-window view: per-op rps, rates, and quantiles.

        Merges every live slot (stamp within the window ending at
        ``now``).  The rps denominator is the window span, clamped to
        the uptime so a server two seconds old doesn't under-report.
        """
        clock_now = self._clock() if now is None else now
        current_slot = int(clock_now / self.slot_seconds)
        oldest = current_slot - len(self._slots) + 1
        merged_outcomes: dict[tuple[str, str], int] = {}
        merged_latency: dict[str, HistogramSummary] = {}
        for slot in list(self._slots):
            if slot.stamp < oldest or slot.stamp > current_slot:
                continue
            for key, count in slot.outcomes.items():
                merged_outcomes[key] = merged_outcomes.get(key, 0) + count
            for op, hist in slot.latency.items():
                target = merged_latency.get(op)
                if target is None:
                    target = merged_latency[op] = HistogramSummary()
                _merge_into(target, hist)
        span = min(self.window_seconds, max(self.slot_seconds, self.uptime_seconds()))
        ops = sorted({op for op, _ in merged_outcomes} | set(merged_latency))
        view: dict[str, dict[str, Any]] = {}
        for op in ops:
            outcomes = {
                outcome: merged_outcomes.get((op, outcome), 0) for outcome in OUTCOMES
            }
            requests = sum(outcomes.values())
            hist = merged_latency.get(op, HistogramSummary())
            failed = outcomes["error"] + outcomes["rejected"]
            view[op] = {
                "requests": requests,
                "rps": requests / span,
                "error_rate": failed / requests if requests else 0.0,
                "degraded_rate": outcomes["degraded"] / requests if requests else 0.0,
                "p50_ms": hist.quantile(0.50) if hist.count else None,
                "p99_ms": hist.quantile(0.99) if hist.count else None,
                "outcomes": outcomes,
            }
        return view


# ---------------------------------------------------------------------------
# Prometheus text exposition (format v0.0.4).
# ---------------------------------------------------------------------------


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    parts = ",".join(
        f'{key}="{_escape_label(str(labels[key]))}"' for key in sorted(labels)
    )
    return "{" + parts + "}"


def sample_line(name: str, labels: Mapping[str, str], value: float) -> str:
    return f"{name}{_format_labels(labels)} {_format_value(value)}"


def scalar_family(
    name: str,
    kind: str,
    help_text: str,
    samples: Sequence[tuple[Mapping[str, str], float]],
) -> list[str]:
    """``# HELP`` / ``# TYPE`` header plus one line per sample."""
    if kind not in ("counter", "gauge"):
        raise ValueError(f"scalar family kind must be counter|gauge, got {kind!r}")
    lines = [f"# HELP {name} {_escape_help(help_text)}", f"# TYPE {name} {kind}"]
    for labels, value in samples:
        lines.append(sample_line(name, labels, value))
    return lines


def histogram_family(
    name: str,
    help_text: str,
    samples: Sequence[tuple[Mapping[str, str], HistogramSummary]],
) -> list[str]:
    """A :class:`HistogramSummary` per label-set as a Prometheus histogram.

    The log-spaced summary buckets become cumulative ``le`` buckets: the
    underflow bucket surfaces as ``le="0"``, each populated log bucket
    at its upper bound, and the mandatory ``le="+Inf"`` bucket equals
    the observation count.
    """
    lines = [f"# HELP {name} {_escape_help(help_text)}", f"# TYPE {name} histogram"]
    for labels, summary in samples:
        cumulative = 0
        for index in sorted(summary.buckets):
            cumulative += summary.buckets[index]
            bound = "0" if index == _UNDERFLOW else _format_value(
                bucket_upper_bound(index)
            )
            lines.append(
                sample_line(name + "_bucket", {**labels, "le": bound}, cumulative)
            )
        lines.append(
            sample_line(name + "_bucket", {**labels, "le": "+Inf"}, summary.count)
        )
        lines.append(sample_line(name + "_sum", labels, summary.total))
        lines.append(sample_line(name + "_count", labels, summary.count))
    return lines


def render_exposition(families: Iterable[Sequence[str]]) -> str:
    """Join family line-blocks into one exposition document."""
    lines: list[str] = []
    for block in families:
        lines.extend(block)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing and structural validation (repro top, CI smoke).
# ---------------------------------------------------------------------------

_NAME_PATTERN = r"[a-zA-Z_:][a-zA-Z0-9_:]*"
_SAMPLE_RE = re.compile(
    rf"^({_NAME_PATTERN})(?:\{{(.*)\}})?\s+(\S+)(?:\s+(-?\d+))?$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


@dataclass
class ParsedSample:
    name: str  # the full series name, e.g. ``foo_bucket``
    labels: dict[str, str]
    value: float


@dataclass
class ParsedFamily:
    name: str
    kind: str | None = None
    help: str | None = None
    samples: list[ParsedSample] = field(default_factory=list)


def _unescape_label(value: str) -> str:
    return (
        value.replace("\\\\", "\x00")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\x00", "\\")
    )


def _base_name(series: str, families: Mapping[str, ParsedFamily]) -> str:
    for suffix in ("_bucket", "_sum", "_count"):
        if series.endswith(suffix):
            base = series[: -len(suffix)]
            family = families.get(base)
            if family is not None and family.kind == "histogram":
                return base
    return series


def parse_exposition(text: str) -> tuple[dict[str, ParsedFamily], list[str]]:
    """Parse a text-format document into families; returns problems too.

    Deliberately strict about what the repo *produces* (sample lines,
    HELP/TYPE comments) and silent about what Prometheus allows beyond
    that (other comments are skipped).
    """
    families: dict[str, ParsedFamily] = {}
    problems: list[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 3 and parts[1] == "TYPE":
                name, kind = parts[2], parts[3] if len(parts) > 3 else ""
                family = families.setdefault(name, ParsedFamily(name))
                if family.kind is not None:
                    problems.append(f"line {lineno}: duplicate TYPE for {name}")
                if kind not in _METRIC_KINDS:
                    problems.append(
                        f"line {lineno}: TYPE {name} has unknown kind {kind!r}"
                    )
                family.kind = kind
            elif len(parts) >= 3 and parts[1] == "HELP":
                name = parts[2]
                family = families.setdefault(name, ParsedFamily(name))
                family.help = parts[3] if len(parts) > 3 else ""
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {lineno}: unparseable sample line {line!r}")
            continue
        series, label_text, value_text = match.group(1), match.group(2), match.group(3)
        labels: dict[str, str] = {}
        if label_text:
            consumed = 0
            for label_match in _LABEL_RE.finditer(label_text):
                labels[label_match.group(1)] = _unescape_label(label_match.group(2))
                consumed += 1
            expected = label_text.count("=")
            if consumed != expected:
                problems.append(f"line {lineno}: malformed labels {label_text!r}")
        try:
            value = float(value_text)
        except ValueError:
            problems.append(f"line {lineno}: bad sample value {value_text!r}")
            continue
        base = _base_name(series, families)
        family = families.setdefault(base, ParsedFamily(base))
        family.samples.append(ParsedSample(name=series, labels=labels, value=value))
    return families, problems


def _histogram_problems(family: ParsedFamily) -> list[str]:
    problems: list[str] = []
    groups: dict[tuple[tuple[str, str], ...], dict[str, Any]] = {}
    for sample in family.samples:
        labels = {k: v for k, v in sample.labels.items() if k != "le"}
        key = tuple(sorted(labels.items()))
        group = groups.setdefault(key, {"buckets": [], "sum": None, "count": None})
        if sample.name.endswith("_bucket"):
            le = sample.labels.get("le")
            if le is None:
                problems.append(f"{family.name}: bucket sample without 'le' label")
                continue
            try:
                bound = math.inf if le == "+Inf" else float(le)
            except ValueError:
                problems.append(f"{family.name}: bad le value {le!r}")
                continue
            group["buckets"].append((bound, sample.value))
        elif sample.name.endswith("_sum"):
            group["sum"] = sample.value
        elif sample.name.endswith("_count"):
            group["count"] = sample.value
        else:
            problems.append(
                f"{family.name}: unexpected series {sample.name!r} in histogram"
            )
    if not groups:
        problems.append(f"{family.name}: histogram with no samples")
    for key, group in sorted(groups.items()):
        where = f"{family.name}{dict(key) or ''}"
        buckets = sorted(group["buckets"])
        if not buckets or buckets[-1][0] != math.inf:
            problems.append(f"{where}: missing le=\"+Inf\" bucket")
            continue
        counts = [count for _, count in buckets]
        if any(b > a for a, b in zip(counts[1:], counts)):
            problems.append(f"{where}: bucket counts are not cumulative")
        if group["count"] is None:
            problems.append(f"{where}: missing _count series")
        elif group["count"] != buckets[-1][1]:
            problems.append(f"{where}: _count disagrees with le=\"+Inf\" bucket")
        if group["sum"] is None:
            problems.append(f"{where}: missing _sum series")
    return problems


def validate_exposition(
    text: str, required: Mapping[str, str] | None = None
) -> list[str]:
    """All structural problems in an exposition document (empty = valid).

    ``required`` maps family name to expected kind; each must be present
    with at least one sample.
    """
    families, problems = parse_exposition(text)
    for name, family in sorted(families.items()):
        if family.samples and family.kind is None:
            problems.append(f"{name}: samples without a TYPE declaration")
        if family.kind == "histogram":
            problems.extend(_histogram_problems(family))
    for name, kind in sorted((required or {}).items()):
        family = families.get(name)
        if family is None:
            problems.append(f"required family {name} is missing")
            continue
        if family.kind != kind:
            problems.append(
                f"required family {name} has kind {family.kind!r}, expected {kind!r}"
            )
        if not family.samples:
            problems.append(f"required family {name} has no samples")
    return problems
