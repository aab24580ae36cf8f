"""Self-time attribution: turning a span forest into a profile table.

A span's *total* time includes everything executed inside it; its *self*
time is what remains after subtracting the durations of its **direct
children** — the time genuinely spent at that level of the stack.  Self
times are additive: summed over a consistent forest they equal the
summed duration of the top-level spans, so a profile is a partition of
observed wall-clock, exactly what a flamegraph draws.

The aggregation is deterministic given the spans: rows are grouped by
span name and ordered by descending self time with the name as
tie-break, so two profiles of the same trace render identically.

>>> from repro import obs
>>> from repro.obs import trace, profile
>>> obs.reset(); obs.enable()
>>> with trace.span("outer"):
...     with trace.span("inner"):
...         pass
>>> p = profile.profile()
>>> sorted(r.name for r in p.rows)
['inner', 'outer']
>>> p.total_self_ns == sum(s.duration_ns for s in trace.spans() if s.depth == 0)
True
>>> obs.disable(); obs.reset()
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.analysis.report import Table
from repro.obs import trace as obs_trace
from repro.obs.trace import Span


def self_times_ns(spans: Sequence[Span]) -> list[int]:
    """Per-span self time in nanoseconds, index-aligned with ``spans``.

    Each direct child's duration is subtracted from its parent; results
    are clamped at zero so a hand-built (or clock-skewed) forest can
    never produce negative attribution.
    """
    position = {s.index: pos for pos, s in enumerate(spans)}
    selfs = [s.duration_ns for s in spans]
    for s in spans:
        if s.parent_index is not None and s.parent_index in position:
            selfs[position[s.parent_index]] -= s.duration_ns
    return [max(0, v) for v in selfs]


@dataclass(frozen=True)
class ProfileRow:
    """Aggregated timing for every span sharing one name."""

    name: str
    calls: int
    total_ns: int  # summed durations (children included)
    self_ns: int  # summed self times (children excluded)
    max_self_ns: int

    @property
    def total_ms(self) -> float:
        return self.total_ns / 1e6

    @property
    def self_ms(self) -> float:
        return self.self_ns / 1e6

    @property
    def mean_self_ns(self) -> float:
        return self.self_ns / self.calls if self.calls else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "max_self_ns": self.max_self_ns,
        }


@dataclass(frozen=True)
class Profile:
    """A deterministic self-time table over one recorded span forest."""

    rows: tuple[ProfileRow, ...]  # descending self time, name tie-break
    total_self_ns: int
    span_count: int

    def top(self, n: int) -> tuple[ProfileRow, ...]:
        return self.rows[:n]

    def row(self, name: str) -> ProfileRow | None:
        for r in self.rows:
            if r.name == name:
                return r
        return None

    def table(self, top: int | None = None) -> Table:
        """The profile as a rendered-ready table (`self %` is each row's
        share of the forest's total self time)."""
        shown = self.rows if top is None else self.rows[:top]
        table = Table(
            ["span", "calls", "self ms", "total ms", "self %"],
            title=(
                f"self-time profile ({self.span_count} spans, "
                f"{self.total_self_ns / 1e6:.3f} ms total)"
            ),
        )
        for r in shown:
            share = (
                100.0 * r.self_ns / self.total_self_ns
                if self.total_self_ns
                else 0.0
            )
            table.add_row(
                [r.name, r.calls, round(r.self_ms, 3), round(r.total_ms, 3), share]
            )
        return table

    def as_dict(self) -> dict[str, Any]:
        return {
            "total_self_ns": self.total_self_ns,
            "span_count": self.span_count,
            "rows": [r.as_dict() for r in self.rows],
        }


def profile_spans(spans: Sequence[Span]) -> Profile:
    """Aggregate a span forest into a :class:`Profile` by span name."""
    selfs = self_times_ns(spans)
    grouped: dict[str, list[int]] = {}
    totals: dict[str, int] = {}
    for s, self_ns in zip(spans, selfs):
        grouped.setdefault(s.name, []).append(self_ns)
        totals[s.name] = totals.get(s.name, 0) + s.duration_ns
    rows = [
        ProfileRow(
            name=name,
            calls=len(values),
            total_ns=totals[name],
            self_ns=sum(values),
            max_self_ns=max(values),
        )
        for name, values in grouped.items()
    ]
    rows.sort(key=lambda r: (-r.self_ns, r.name))
    return Profile(
        rows=tuple(rows),
        total_self_ns=sum(selfs),
        span_count=len(spans),
    )


def profile() -> Profile:
    """The profile of everything recorded on the global tracer so far."""
    return profile_spans(obs_trace.spans())
