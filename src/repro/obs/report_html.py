"""The cross-run HTML dashboard: ``repro report --html``.

One self-contained static page — inline CSS, inline SVG sparklines
(:func:`repro.analysis.svg.sparkline_svg`), zero JavaScript and zero
external requests — summarising everything the run registry knows:

- an **overview table** of indexed runs (id, commit, seed, mode, status,
  links to each run's artifacts: report, metrics, trace, flamegraph
  stacks, event log);
- a **per-scenario drill-down**: the timing trend across runs as a
  sparkline plus a point table with the same regression verdicts as
  ``repro runs trend`` and the perf gate;
- a **plan quality & calibration section**: per-predicate-class q-error
  (p90) trends across runs as sparklines plus the calibration table
  (q-error p50/p90/max, misestimates, choice accuracy) aggregated from
  each run's ``plans.jsonl`` (see :mod:`repro.obs.planquality`).

Only artifacts that actually exist are linked (partial runs simply show
fewer links), so the report-smoke CI job can assert that **every** link
resolves.  Rendering is a pure function of the registry contents, which
is what makes the golden-structure test possible.
"""

from __future__ import annotations

import html
import os
import time
from html.parser import HTMLParser
from pathlib import Path
from typing import Any

from repro.analysis.svg import sparkline_svg
from repro.obs.registry import DEFAULT_TOLERANCE, RunRegistry

REPORT_TITLE = "repro — cross-run observability report"

# Artifact filename -> link label, in display order.
_ARTIFACT_LABELS = (
    ("report.md", "report"),
    ("manifest.json", "manifest"),
    ("metrics.json", "metrics"),
    ("bench.json", "bench"),
    ("events.jsonl", "events"),
    ("plans.jsonl", "plans"),
    ("trace.json", "trace"),
    ("trace.folded", "flamegraph"),
    ("tables.json", "tables"),
)

_STYLE = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 2em auto; max-width: 72em; color: #222; }
h1 { font-size: 1.5em; } h2 { font-size: 1.2em; margin-top: 2em; }
table { border-collapse: collapse; margin: 0.8em 0; }
th, td { border: 1px solid #ccc; padding: 0.3em 0.6em; text-align: left;
         font-size: 0.9em; }
th { background: #f2f2f2; }
td.num { text-align: right; font-variant-numeric: tabular-nums; }
.status-ok { color: #1a7f37; } .status-failed { color: #cc3333; }
.status-partial { color: #b08000; }
.verdict-REGRESSION, .verdict-FAILED, .verdict-MISSING
  { color: #cc3333; font-weight: bold; }
.verdict-faster, .verdict-better { color: #1a7f37; }
.muted { color: #777; } .spark { vertical-align: middle; }
code { background: #f6f6f6; padding: 0 0.2em; }
"""


def _esc(value: Any) -> str:
    return html.escape(str(value), quote=True)


def _inline_svg(document: str) -> str:
    """An SVG document prepared for direct HTML embedding (the standalone
    XML declaration is invalid inside an HTML body)."""
    lines = document.splitlines()
    if lines and lines[0].startswith("<?xml"):
        lines = lines[1:]
    return "\n".join(lines)


def _date(created_unix: float | None) -> str:
    if created_unix is None:
        return "-"
    return time.strftime("%Y-%m-%d %H:%M:%S", time.gmtime(created_unix))


def _ms(value_ns: float | None) -> str:
    return "-" if value_ns is None else f"{value_ns / 1e6:.3f}"


def _short_sha(sha: str) -> str:
    base, dash, suffix = sha.partition("-")
    shortened = base[:10] if len(base) > 10 else base
    return shortened + dash + suffix


def artifact_links(run: dict[str, Any], link_root: str | Path) -> list[tuple[str, str]]:
    """``(label, relative_href)`` pairs for the run's existing artifacts.

    Paths are relative to ``link_root`` — the directory the HTML file is
    written into — and only files present on disk are returned, so every
    emitted link resolves.
    """
    run_path = Path(run["path"])
    links = []
    for filename, label in _ARTIFACT_LABELS:
        target = run_path / filename
        if filename in run.get("artifacts", []) and target.is_file():
            links.append(
                (label, os.path.relpath(target, Path(link_root)))
            )
    return links


def _overview_section(
    registry: RunRegistry, link_root: str | Path
) -> list[str]:
    runs = registry.runs()
    out = [f"<h2>Runs ({len(runs)} indexed)</h2>"]
    if not runs:
        out.append('<p class="muted">No run directories indexed.</p>')
        return out
    out.append("<table>")
    out.append(
        "<thead><tr><th>run</th><th>created (UTC)</th><th>commit</th>"
        "<th>seed</th><th>mode</th><th>status</th><th>scenarios</th>"
        "<th>artifacts</th></tr></thead><tbody>"
    )
    for run in runs:
        scenarios = registry.scenarios_for(run["run_id"])
        links = " ".join(
            f'<a href="{_esc(href)}">{_esc(label)}</a>'
            for label, href in artifact_links(run, link_root)
        )
        problems = run.get("problems") or []
        status_cell = (
            f'<span class="status-{_esc(run["status"])}">{_esc(run["status"])}</span>'
        )
        if problems:
            status_cell += (
                f' <span class="muted" title="{_esc("; ".join(problems))}">'
                f"({len(problems)} problem(s))</span>"
            )
        out.append(
            "<tr>"
            f'<td><code id="run-{_esc(run["run_id"])}">{_esc(run["run_id"])}</code></td>'
            f"<td>{_esc(_date(run['created_unix']))}</td>"
            f"<td><code>{_esc(_short_sha(run['git_sha']))}</code></td>"
            f'<td class="num">{_esc(run["seed"] if run["seed"] is not None else "-")}</td>'
            f"<td>{_esc(run['mode'] or '-')}</td>"
            f"<td>{status_cell}</td>"
            f'<td class="num">{len(scenarios)}</td>'
            "<td>" + (links or '<span class="muted">none</span>') + "</td>"
            "</tr>"
        )
    out.append("</tbody></table>")
    return out


def _scenario_section(
    registry: RunRegistry, scenario: str, tolerance: float
) -> list[str]:
    points = registry.trend(scenario, tolerance=tolerance)
    values = [
        None if p["value_ns"] is None else p["value_ns"] / 1e6 for p in points
    ]
    flags = [p["verdict"] in ("REGRESSION", "FAILED") for p in points]
    regressions = sum(1 for p in points if p["verdict"] == "REGRESSION")
    out = [f'<h2 id="scenario-{_esc(scenario)}">Scenario <code>{_esc(scenario)}</code></h2>']
    summary = f"{len(points)} run(s)"
    if regressions:
        summary += (
            f', <span class="verdict-REGRESSION">{regressions} regression(s)'
            "</span>"
        )
    out.append(f"<p>{summary} — best wall-clock per run, ms:</p>")
    if points:
        # Surface the newest run's deterministic result scalars (output
        # sizes, intermediate counters, AGM bounds, …) next to the
        # timing trend — the wcoj gate's numbers live here.
        latest = points[-1]["run_id"]
        for entry in registry.scenarios_for(latest):
            if entry["scenario"] == scenario and entry["results"]:
                rendered = " ".join(
                    f"{key}={value}"
                    for key, value in sorted(entry["results"].items())
                )
                out.append(
                    f'<p class="muted">latest results '
                    f"(<code>{_esc(latest)}</code>): "
                    f"<code>{_esc(rendered)}</code></p>"
                )
                break
    out.append(
        f'<div class="spark">{_inline_svg(sparkline_svg(values, flags))}</div>'
    )
    out.append("<table>")
    out.append(
        "<thead><tr><th>run</th><th>created (UTC)</th><th>commit</th>"
        "<th>status</th><th>best ms</th><th>vs prev</th><th>verdict</th>"
        "</tr></thead><tbody>"
    )
    for point in points:
        ratio = "-" if point["ratio"] is None else f"{point['ratio']:.2f}x"
        out.append(
            "<tr>"
            f'<td><a href="#run-{_esc(point["run_id"])}"><code>'
            f'{_esc(point["run_id"])}</code></a></td>'
            f"<td>{_esc(_date(point['created_unix']))}</td>"
            f"<td><code>{_esc(_short_sha(point['git_sha']))}</code></td>"
            f"<td>{_esc(point['status'])}</td>"
            f'<td class="num">{_esc(_ms(point["value_ns"]))}</td>'
            f'<td class="num">{_esc(ratio)}</td>'
            f'<td class="verdict-{_esc(point["verdict"])}">'
            f"{_esc(point['verdict'])}</td>"
            "</tr>"
        )
    out.append("</tbody></table>")
    return out


def _fmt_q(value: float | None) -> str:
    return "-" if value is None else f"{value:.2f}"


def _fmt_pct(value: float | None) -> str:
    return "-" if value is None else f"{value:.0%}"


def _plan_quality_section(
    registry: RunRegistry, predicate: str, tolerance: float
) -> list[str]:
    points = registry.plan_trend(predicate, metric="q_p90", tolerance=tolerance)
    values = [p["value"] for p in points]
    flags = [p["verdict"] == "REGRESSION" for p in points]
    regressions = sum(flags)
    out = [
        f'<h3 id="plan-{_esc(predicate)}">Predicate <code>{_esc(predicate)}'
        "</code></h3>"
    ]
    summary = f"{len(points)} run(s)"
    if regressions:
        summary += (
            f', <span class="verdict-REGRESSION">{regressions} regression(s)'
            "</span>"
        )
    out.append(f"<p>{summary} — q-error p90 per run:</p>")
    out.append(
        f'<div class="spark">{_inline_svg(sparkline_svg(values, flags))}</div>'
    )
    out.append("<table>")
    out.append(
        "<thead><tr><th>run</th><th>plans</th><th>q-error p50</th>"
        "<th>q-error p90</th><th>q-error max</th><th>misestimates</th>"
        "<th>choice accuracy</th><th>vs prev</th><th>verdict</th>"
        "</tr></thead><tbody>"
    )
    for point in points:
        row = next(
            (
                r
                for r in registry.plan_quality_for(point["run_id"])
                if r["predicate"] == predicate
            ),
            {},
        )
        ratio = "-" if point["ratio"] is None else f"{point['ratio']:.2f}x"
        out.append(
            "<tr>"
            f'<td><a href="#run-{_esc(point["run_id"])}"><code>'
            f'{_esc(point["run_id"])}</code></a></td>'
            f'<td class="num">{_esc(row.get("plans", "-"))}</td>'
            f'<td class="num">{_esc(_fmt_q(row.get("q_p50")))}</td>'
            f'<td class="num">{_esc(_fmt_q(row.get("q_p90")))}</td>'
            f'<td class="num">{_esc(_fmt_q(row.get("q_max")))}</td>'
            f'<td class="num">{_esc(row.get("misestimates", "-"))}</td>'
            f'<td class="num">{_esc(_fmt_pct(row.get("choice_accuracy")))}</td>'
            f'<td class="num">{_esc(ratio)}</td>'
            f'<td class="verdict-{_esc(point["verdict"])}">'
            f"{_esc(point['verdict'])}</td>"
            "</tr>"
        )
    out.append("</tbody></table>")
    return out


def render_report(
    registry: RunRegistry,
    link_root: str | Path = ".",
    tolerance: float = DEFAULT_TOLERANCE,
) -> str:
    """The full dashboard as one self-contained HTML document.

    ``link_root`` is the directory the page will be saved in; artifact
    hrefs are computed relative to it.  Rendering reads only the registry
    (plus an existence check per artifact), so equal registry contents
    give byte-equal HTML — the golden test's contract.
    """
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        f"<title>{_esc(REPORT_TITLE)}</title>",
        f"<style>{_STYLE}</style>",
        "</head>",
        "<body>",
        f"<h1>{_esc(REPORT_TITLE)}</h1>",
        "<p class=\"muted\">Regression threshold: "
        f"{tolerance:.0%} over the previous ok run "
        "(the <code>repro check --baseline</code> perf-gate rule).</p>",
    ]
    parts.extend(_overview_section(registry, link_root))
    for scenario in registry.scenario_names():
        parts.extend(_scenario_section(registry, scenario, tolerance))
    predicates = registry.plan_predicates()
    if predicates:
        parts.append('<h2 id="plan-quality">Plan quality &amp; calibration</h2>')
        parts.append(
            '<p class="muted">Per-predicate-class planner calibration '
            "aggregated from each run's <code>plans.jsonl</code>: q-error "
            "= max(est/act, act/est) on output-size estimates, choice "
            "accuracy from shadow-executed runner-up plans "
            "(<code>make plan-gate</code> gates these).</p>"
        )
        for predicate in predicates:
            parts.extend(_plan_quality_section(registry, predicate, tolerance))
    parts.append("</body>")
    parts.append("</html>")
    return "\n".join(parts) + "\n"


def write_report(
    registry: RunRegistry,
    output: str | Path,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Path:
    """Render and write the dashboard next to its link root; returns the
    written path."""
    target = Path(output)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        render_report(registry, link_root=target.parent, tolerance=tolerance)
    )
    return target


# ---------------------------------------------------------------------------
# Structure and link check for a written report (``repro check``).
# ---------------------------------------------------------------------------

# Elements that never take a closing tag: HTML voids plus the SVG shapes
# the sparklines emit as self-closing.
_VOID = {
    "area", "base", "br", "col", "embed", "hr", "img", "input", "link",
    "meta", "source", "track", "wbr",
    "circle", "ellipse", "line", "path", "polygon", "polyline", "rect",
}


class _ReportChecker(HTMLParser):
    def __init__(self, context: str) -> None:
        super().__init__()
        self.context = context
        self.stack: list[str] = []
        self.counts: dict[str, int] = {}
        self.hrefs: list[str] = []
        self.ids: set[str] = set()
        self.problems: list[str] = []

    def handle_startendtag(self, tag, attrs):
        self.counts[tag] = self.counts.get(tag, 0) + 1
        if tag == "script":
            self.problems.append(f"{self.context}: <script> tag present")
        for key, value in attrs:
            if key == "id" and value:
                self.ids.add(value)
            if key in ("href", "src") and value:
                if value.startswith(("http://", "https://", "//")):
                    self.problems.append(
                        f"{self.context}: external URL {value!r} "
                        "(report must be self-contained)"
                    )
                elif key == "href":
                    self.hrefs.append(value)

    def handle_starttag(self, tag, attrs):
        self.handle_startendtag(tag, attrs)
        if tag not in _VOID:
            self.stack.append(tag)

    def handle_endtag(self, tag):
        if tag in _VOID:
            return
        if self.stack and self.stack[-1] == tag:
            self.stack.pop()
        else:
            self.problems.append(f"{self.context}: unbalanced closing </{tag}>")


def validate_report(text: str, path: str | Path) -> list[str]:
    """All problems in the report ``text`` saved at ``path`` (empty =
    valid): tags balance, exactly one ``<html>``/``<head>``/``<body>``, no
    ``<script>`` and no external URLs (the page is self-contained), every
    ``#fragment`` targets an ``id`` and every relative link resolves to a
    file next to the report."""
    checker = _ReportChecker(str(path))
    checker.feed(text)
    checker.close()
    problems = checker.problems
    if checker.stack:
        problems.append(f"{path}: unclosed tags at EOF: {checker.stack}")
    for tag in ("html", "head", "body"):
        if checker.counts.get(tag, 0) != 1:
            problems.append(
                f"{path}: expected exactly one <{tag}>, "
                f"found {checker.counts.get(tag, 0)}"
            )
    base = Path(path).resolve().parent
    for href in checker.hrefs:
        if href.startswith("#"):
            if href[1:] not in checker.ids:
                problems.append(f"{path}: dangling fragment link {href!r}")
        elif not (base / href).is_file():
            problems.append(f"{path}: broken link {href!r}")
    return problems
