"""Run manifests: every observed run leaves a reproducible artifact trail.

A *run* is one observed unit of work — a benchmark sweep, an experiment
regeneration, any CLI invocation that opts in.  Its artifacts land under
``runs/{run_id}/``:

- ``manifest.json`` — provenance: git SHA, seed, python/platform
  versions, the arguments the run was invoked with, span totals;
- ``metrics.json`` — the canonical metrics snapshot
  (:meth:`repro.obs.metrics.MetricsRegistry.to_json`); byte-identical
  across same-seed runs;
- ``report.md`` — a human-readable report rendered with the repo's own
  :class:`repro.analysis.report.Table`;
- ``events.jsonl`` — the structured event log
  (:mod:`repro.obs.events`), when any events were recorded.

The layout follows the manifest-per-run convention of reproducible-ML
harnesses: one directory per run, provenance separated from measurements,
everything plain JSON/markdown so artifacts diff cleanly in review.

Every artifact is written **atomically** (write to a sibling temp file,
``fsync``, then ``os.replace``), so a run killed mid-write leaves either
the previous complete file or nothing — never a truncated
``manifest.json`` that would poison the run registry's index.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analysis.report import Table
from repro.obs import events as obs_events
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

DEFAULT_RUNS_DIR = "runs"


def write_atomic(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` via temp-file + fsync + rename.

    The temp file lives in the same directory (rename must not cross
    filesystems); on any failure mid-write the target is untouched and
    the temp file is removed.
    """
    target = Path(path)
    tmp = target.with_name(target.name + ".tmp")
    try:
        with open(tmp, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return target


def git_sha(cwd: str | Path | None = None) -> str:
    """The current git commit SHA, or ``"unknown"`` outside a checkout.

    Defaults to the checkout that holds this source tree (not the process
    working directory), so manifests stay attributable when the CLI runs
    from elsewhere.  A ``-dirty`` suffix marks uncommitted changes, so a
    manifest never silently attributes a modified tree to a clean commit.
    """
    if cwd is None:
        cwd = Path(__file__).resolve().parent

    def _git(*argv: str) -> subprocess.CompletedProcess | None:
        try:
            return subprocess.run(
                ["git", *argv],
                cwd=str(cwd),
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None

    out = _git("rev-parse", "HEAD")
    if out is None:
        return "unknown"
    sha = out.stdout.strip()
    if out.returncode != 0 or not sha:
        return "unknown"
    status = _git("status", "--porcelain")
    if status is not None and status.returncode == 0 and status.stdout.strip():
        sha += "-dirty"
    return sha


def make_run_id(prefix: str = "run", seed: int | None = None) -> str:
    """A unique, sortable run id: ``<prefix>-<utc timestamp>-<pid>[-s<seed>]``."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    suffix = f"-s{seed}" if seed is not None else ""
    return f"{prefix}-{stamp}-p{os.getpid()}{suffix}"


@dataclass
class RunManifest:
    """Provenance for one observed run (the ``manifest.json`` payload)."""

    run_id: str
    seed: int | None
    args: dict[str, Any] = field(default_factory=dict)
    git_sha: str = "unknown"
    python_version: str = ""
    platform: str = ""
    created_unix: float = 0.0
    span_count: int = 0
    extra: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        run_id: str,
        seed: int | None = None,
        args: dict[str, Any] | None = None,
        extra: dict[str, Any] | None = None,
    ) -> "RunManifest":
        """Fill provenance fields from the current process and git state."""
        return cls(
            run_id=run_id,
            seed=seed,
            args=dict(args or {}),
            git_sha=git_sha(),
            python_version=sys.version.split()[0],
            platform=platform.platform(),
            created_unix=time.time(),
            span_count=len(obs_trace.spans()),
            extra=dict(extra or {}),
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "seed": self.seed,
            "args": self.args,
            "git_sha": self.git_sha,
            "python_version": self.python_version,
            "platform": self.platform,
            "created_unix": self.created_unix,
            "span_count": self.span_count,
            "extra": self.extra,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, indent=2) + "\n"


def _metrics_table(snapshot: dict[str, Any]) -> Table:
    table = Table(["metric", "kind", "value"], title="Metrics")
    for name, value in snapshot["counters"].items():
        table.add_row([name, "counter", value])
    for name, value in snapshot["gauges"].items():
        table.add_row([name, "gauge", value])
    for name, summary in snapshot["histograms"].items():
        table.add_row(
            [name, "histogram", f"n={summary['count']} mean={summary['mean']:.4g}"]
        )
    return table


def _spans_table(limit: int = 20) -> Table:
    """The slowest recorded spans, widest first."""
    table = Table(["span", "depth", "ms"], title=f"Slowest spans (top {limit})")
    ranked = sorted(obs_trace.spans(), key=lambda s: -s.duration_ns)[:limit]
    for s in ranked:
        table.add_row([s.name, s.depth, round(s.duration_ms, 3)])
    return table


def render_report(
    manifest: RunManifest,
    snapshot: dict[str, Any],
    tables: list[Table] | None = None,
) -> str:
    """``report.md``: provenance header plus rendered tables."""
    lines = [
        f"# Run report — {manifest.run_id}",
        "",
        f"- git SHA: `{manifest.git_sha}`",
        f"- seed: {manifest.seed}",
        f"- python: {manifest.python_version} ({manifest.platform})",
        f"- spans recorded: {manifest.span_count}",
        "",
    ]
    for table in tables or []:
        lines.append("```")
        lines.append(table.render())
        lines.append("```")
        lines.append("")
    lines.append("```")
    lines.append(_metrics_table(snapshot).render())
    lines.append("```")
    lines.append("")
    if manifest.span_count:
        lines.append("```")
        lines.append(_spans_table().render())
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def write_run(
    run_id: str,
    runs_dir: str | Path = DEFAULT_RUNS_DIR,
    seed: int | None = None,
    args: dict[str, Any] | None = None,
    tables: list[Table] | None = None,
    extra: dict[str, Any] | None = None,
) -> Path:
    """Write ``manifest.json``, ``metrics.json``, ``report.md`` and — when
    tables were supplied — ``tables.json`` for the current global
    tracer/metrics state; returns the run directory.

    The metrics snapshot is taken here, so callers enable observability,
    do the work, then call this once at the end.  ``tables.json`` carries
    the un-formatted cell values (:meth:`Table.as_dict`), so downstream
    tooling reads typed data instead of re-parsing ASCII.
    """
    run_dir = Path(runs_dir) / run_id
    run_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.collect(run_id, seed=seed, args=args, extra=extra)
    snapshot = obs_metrics.snapshot()
    write_atomic(run_dir / "manifest.json", manifest.to_json())
    write_atomic(run_dir / "metrics.json", obs_metrics.to_json())
    write_atomic(
        run_dir / "report.md", render_report(manifest, snapshot, tables)
    )
    if tables:
        payload = [t.as_dict() for t in tables]
        write_atomic(
            run_dir / "tables.json",
            json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n",
        )
    if obs_events.events():
        write_atomic(run_dir / "events.jsonl", obs_events.to_jsonl())
    return run_dir
