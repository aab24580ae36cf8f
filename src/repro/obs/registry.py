"""The run registry: every ``runs/<id>/`` directory, queryable as SQLite.

PRs 1–3 made each observed run leave an artifact trail (``manifest.json``,
``metrics.json``, ``tables.json``, ``events.jsonl``, traces); this module
turns the pile of directories into one longitudinal store so questions
like "how did exact-solver timing move over the last N runs" are a query,
not a shell loop.

Four tables in ``runs/registry.db`` (see ``docs/OBSERVABILITY.md``):

- ``runs`` — one row per run directory: id, git SHA, seed, mode, status,
  creation time, artifact inventory;
- ``scenarios`` — per-run bench scenario rows (status, best/mean wall
  nanoseconds, repeats, result scalars);
- ``metrics`` — flattened ``metrics.json`` values (counters, gauges, and
  histogram count/mean/p50/p90/p99);
- ``plan_quality`` — per-run, per-predicate-class planner calibration
  aggregated from ``plans.jsonl`` (q-error p50/p90/max, misestimate
  count, choice accuracy; see :mod:`repro.obs.planquality`).

The database is a **cache, never a source of truth**: it is rebuilt from
the artifacts alone (:meth:`RunRegistry.rebuild`), so deleting it loses
nothing and the round-trip property — index, query, rebuild-from-scratch,
same answers — is tested.  Partial run directories (a run killed
mid-write, a corrupt manifest) index with ``status='partial'`` instead of
crashing the scan.

Trend analytics (:meth:`RunRegistry.trend`) compute per-scenario timing
series across runs and flag regressions with the perf gate's rule and
tolerance (:mod:`repro.obs.verdict`), so "REGRESSION" means one thing
across ``repro check --baseline``, ``repro runs trend``, and the HTML
report.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs import planquality
from repro.obs.verdict import (
    DEFAULT_TOLERANCE,
    comparable,
    compare_scenarios,
    verdict,
)

REGISTRY_SCHEMA = "repro-registry/v1"
DB_FILENAME = "registry.db"

# Artifact files a complete run directory may carry; the inventory column
# records which ones exist so report links never dangle.
ARTIFACT_FILES = (
    "manifest.json",
    "metrics.json",
    "tables.json",
    "report.md",
    "bench.json",
    "events.jsonl",
    "plans.jsonl",
    "trace.json",
    "trace.folded",
)

# Plan-quality columns `plan_trend` accepts; for every metric except
# choice_accuracy a higher value is worse (q-error grows with
# miscalibration, accuracy shrinks with it).
PLAN_METRICS = ("q_p50", "q_p90", "q_max", "misestimates", "choice_accuracy")

STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_PARTIAL = "partial"


_SCHEMA_SQL = """
CREATE TABLE IF NOT EXISTS runs (
    run_id TEXT PRIMARY KEY,
    git_sha TEXT NOT NULL,
    seed INTEGER,
    mode TEXT,
    status TEXT NOT NULL,
    created_unix REAL,
    python_version TEXT,
    platform TEXT,
    span_count INTEGER,
    path TEXT NOT NULL,
    artifacts TEXT NOT NULL,
    args_json TEXT NOT NULL,
    problems TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS scenarios (
    run_id TEXT NOT NULL,
    scenario TEXT NOT NULL,
    status TEXT NOT NULL,
    best_ns REAL,
    mean_ns REAL,
    repeats INTEGER,
    results_json TEXT NOT NULL,
    PRIMARY KEY (run_id, scenario)
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id TEXT NOT NULL,
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    value REAL,
    PRIMARY KEY (run_id, kind, name)
);
CREATE TABLE IF NOT EXISTS plan_quality (
    run_id TEXT NOT NULL,
    predicate TEXT NOT NULL,
    plans INTEGER,
    executed INTEGER,
    q_p50 REAL,
    q_p90 REAL,
    q_max REAL,
    misestimates INTEGER,
    shadow_checked INTEGER,
    choice_correct INTEGER,
    choice_accuracy REAL,
    PRIMARY KEY (run_id, predicate)
);
CREATE INDEX IF NOT EXISTS idx_scenarios_by_name ON scenarios (scenario);
CREATE INDEX IF NOT EXISTS idx_metrics_by_name ON metrics (name);
CREATE INDEX IF NOT EXISTS idx_plan_quality_by_predicate
    ON plan_quality (predicate);
"""


@dataclass
class IndexedRun:
    """The parsed view of one run directory, pre-insertion."""

    run_id: str
    path: Path
    git_sha: str = "unknown"
    seed: int | None = None
    mode: str | None = None
    status: str = STATUS_PARTIAL
    created_unix: float | None = None
    python_version: str | None = None
    platform: str | None = None
    span_count: int | None = None
    artifacts: list[str] = field(default_factory=list)
    args: dict[str, Any] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    scenarios: list[dict[str, Any]] = field(default_factory=list)
    metrics: list[tuple[str, str, float]] = field(default_factory=list)
    plan_quality: list[dict[str, Any]] = field(default_factory=list)


def _read_json(path: Path, problems: list[str]) -> Any | None:
    """Parse one artifact file; unreadable/corrupt becomes a problem note
    (how mid-write-killed runs surface) instead of an exception."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def scenarios_from_bench(payload: Any, problems: list[str]) -> list[dict[str, Any]]:
    """Scenario rows from a ``bench.json`` or ``BENCH_*.json`` payload
    (a ``BenchReport.as_dict``), in the shape :meth:`RunRegistry.compare`
    reads; v1 payloads carry no status and count as ok."""
    rows: list[dict[str, Any]] = []
    if not isinstance(payload, dict) or not isinstance(
        payload.get("scenarios"), list
    ):
        problems.append("bench.json: no scenario list")
        return rows
    for entry in payload["scenarios"]:
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            continue
        wall = entry.get("wall_ns") if isinstance(entry.get("wall_ns"), dict) else {}
        rows.append(
            {
                "scenario": entry["name"],
                "status": entry.get("status", STATUS_OK),
                "best_ns": _as_float(wall.get("best")),
                "mean_ns": _as_float(wall.get("mean")),
                "repeats": entry.get("repeats"),
                "results": entry.get("results") or {},
                "error": entry.get("error"),
            }
        )
    return rows


def _scenarios_from_tables(payload: Any) -> list[dict[str, Any]]:
    """Scenario rows recovered from ``tables.json`` (pre-``bench.json``
    run dirs): the bench table's raw rows are
    ``[scenario, status, best_ms, mean_ms, repeats, summary]``."""
    rows: list[dict[str, Any]] = []
    if not isinstance(payload, list):
        return rows
    for table in payload:
        if not isinstance(table, dict):
            continue
        columns = table.get("columns")
        if not isinstance(columns, list) or columns[:2] != ["scenario", "status"]:
            continue
        for raw in table.get("rows") or []:
            if not isinstance(raw, list) or len(raw) < 5:
                continue
            best_ms, mean_ms = _as_float(raw[2]), _as_float(raw[3])
            rows.append(
                {
                    "scenario": str(raw[0]),
                    "status": str(raw[1]),
                    "best_ns": None if best_ms is None else best_ms * 1e6,
                    "mean_ns": None if mean_ms is None else mean_ms * 1e6,
                    "repeats": raw[4] if isinstance(raw[4], int) else None,
                    "results": {},
                }
            )
    return rows


def _as_float(value: Any) -> float | None:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    return float(value)


def _metrics_rows(payload: Any) -> list[tuple[str, str, float]]:
    """Flatten a ``metrics.json`` snapshot into (kind, name, value) rows."""
    rows: list[tuple[str, str, float]] = []
    if not isinstance(payload, dict):
        return rows
    for name, value in (payload.get("counters") or {}).items():
        if (converted := _as_float(value)) is not None:
            rows.append(("counter", str(name), converted))
    for name, value in (payload.get("gauges") or {}).items():
        if (converted := _as_float(value)) is not None:
            rows.append(("gauge", str(name), converted))
    for name, summary in (payload.get("histograms") or {}).items():
        if not isinstance(summary, dict):
            continue
        for stat in ("count", "mean", "p50", "p90", "p99"):
            if (converted := _as_float(summary.get(stat))) is not None:
                rows.append(("histogram", f"{name}.{stat}", converted))
    return rows


def _plan_quality_rows(path: Path, problems: list[str]) -> list[dict[str, Any]]:
    """Per-predicate calibration rows aggregated from one ``plans.jsonl``.

    Malformed lines become problem notes (same contract as every other
    artifact: a truncated log marks the run partial, never crashes the
    scan); well-formed records still aggregate.
    """
    if not path.is_file():
        return []
    try:
        text = path.read_text()
    except OSError as exc:
        problems.append(f"plans.jsonl: unreadable ({exc})")
        return []
    records: list[planquality.PlanRecord] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(planquality.PlanRecord.from_dict(json.loads(line)))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            problems.append(f"plans.jsonl:{number}: bad plan record ({exc})")
    return planquality.calibration(records) if records else []


def parse_run_dir(run_dir: str | Path) -> IndexedRun:
    """Parse one run directory into an :class:`IndexedRun`.

    Never raises on artifact content: a directory with a missing or
    truncated ``manifest.json`` still indexes (run id falls back to the
    directory name, ``status='partial'``, problems recorded), so one run
    killed mid-write cannot poison the whole index.
    """
    run_dir = Path(run_dir)
    problems: list[str] = []
    run = IndexedRun(run_id=run_dir.name, path=run_dir, problems=problems)
    run.artifacts = [
        name for name in ARTIFACT_FILES if (run_dir / name).is_file()
    ]

    manifest = _read_json(run_dir / "manifest.json", problems)
    extra: dict[str, Any] = {}
    if isinstance(manifest, dict):
        if isinstance(manifest.get("run_id"), str) and manifest["run_id"]:
            run.run_id = manifest["run_id"]
        if isinstance(manifest.get("git_sha"), str):
            run.git_sha = manifest["git_sha"]
        if isinstance(manifest.get("seed"), int):
            run.seed = manifest["seed"]
        run.created_unix = _as_float(manifest.get("created_unix"))
        if isinstance(manifest.get("python_version"), str):
            run.python_version = manifest["python_version"]
        if isinstance(manifest.get("platform"), str):
            run.platform = manifest["platform"]
        if isinstance(manifest.get("span_count"), int):
            run.span_count = manifest["span_count"]
        if isinstance(manifest.get("args"), dict):
            run.args = manifest["args"]
        if isinstance(manifest.get("extra"), dict):
            extra = manifest["extra"]
    elif manifest is None and "manifest.json" not in run.artifacts:
        problems.append("manifest.json: missing")
    if isinstance(extra.get("mode"), str):
        run.mode = extra["mode"]

    metrics = _read_json(run_dir / "metrics.json", problems)
    if metrics is None and "metrics.json" not in run.artifacts:
        problems.append("metrics.json: missing")
    run.metrics = _metrics_rows(metrics)

    bench = _read_json(run_dir / "bench.json", problems)
    if bench is not None:
        run.scenarios = scenarios_from_bench(bench, problems)
    else:
        run.scenarios = _scenarios_from_tables(
            _read_json(run_dir / "tables.json", problems)
        )

    run.plan_quality = _plan_quality_rows(run_dir / "plans.jsonl", problems)

    if problems:
        run.status = STATUS_PARTIAL
    elif any(s["status"] != STATUS_OK for s in run.scenarios) or (
        isinstance(extra.get("failed"), list) and extra["failed"]
    ):
        run.status = STATUS_FAILED
    else:
        run.status = STATUS_OK
    return run


def _flag_series(
    points: list[dict[str, Any]],
    key: str,
    tolerance: float,
    higher_is_worse: bool = True,
    improved: str = "better",
    no_value: str = "no-data",
) -> list[dict[str, Any]]:
    """Give each point a ``ratio`` and ``verdict`` against the previous
    point that has a value and a comparable mode; the first such point is
    the ``baseline``."""
    earlier: list[dict[str, Any]] = []
    for point in points:
        point["ratio"] = None
        value = point[key]
        if value is None:
            failed = point.get("status", STATUS_OK) != STATUS_OK
            point["verdict"] = "FAILED" if failed else no_value
            continue
        previous = next(
            (p[key] for p in reversed(earlier) if comparable(p["mode"], point["mode"])),
            None,
        )
        if previous is None or previous <= 0:
            point["verdict"] = "baseline"
        else:
            point["ratio"], point["verdict"] = verdict(
                previous, value, tolerance, higher_is_worse, improved
            )
        earlier.append(point)
    return points


class RunRegistry:
    """The SQLite-backed index over a ``runs/`` directory.

    ``path`` may be a filesystem path or ``":memory:"``; in either case
    the store is disposable — :meth:`rebuild` reconstructs it from the
    run directories alone.
    """

    def __init__(self, path: str | Path = ":memory:") -> None:
        self.path = str(path)
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(_SCHEMA_SQL)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunRegistry":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- indexing ------------------------------------------------------
    def index_run(self, run_dir: str | Path) -> IndexedRun:
        """Parse and upsert one run directory; returns the parsed view."""
        run = parse_run_dir(run_dir)
        with self._conn:
            self._conn.execute(
                "REPLACE INTO runs (run_id, git_sha, seed, mode, status,"
                " created_unix, python_version, platform, span_count, path,"
                " artifacts, args_json, problems)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    run.run_id,
                    run.git_sha,
                    run.seed,
                    run.mode,
                    run.status,
                    run.created_unix,
                    run.python_version,
                    run.platform,
                    run.span_count,
                    str(run.path),
                    json.dumps(run.artifacts),
                    json.dumps(run.args, sort_keys=True),
                    json.dumps(run.problems),
                ),
            )
            self._conn.execute(
                "DELETE FROM scenarios WHERE run_id = ?", (run.run_id,)
            )
            self._conn.executemany(
                "INSERT OR REPLACE INTO scenarios (run_id, scenario, status,"
                " best_ns, mean_ns, repeats, results_json)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run.run_id,
                        s["scenario"],
                        s["status"],
                        s["best_ns"],
                        s["mean_ns"],
                        s["repeats"],
                        json.dumps(s["results"], sort_keys=True, default=str),
                    )
                    for s in run.scenarios
                ],
            )
            self._conn.execute(
                "DELETE FROM metrics WHERE run_id = ?", (run.run_id,)
            )
            self._conn.executemany(
                "INSERT OR REPLACE INTO metrics (run_id, kind, name, value)"
                " VALUES (?, ?, ?, ?)",
                [(run.run_id, kind, name, value) for kind, name, value in run.metrics],
            )
            self._conn.execute(
                "DELETE FROM plan_quality WHERE run_id = ?", (run.run_id,)
            )
            self._conn.executemany(
                "INSERT OR REPLACE INTO plan_quality (run_id, predicate,"
                " plans, executed, q_p50, q_p90, q_max, misestimates,"
                " shadow_checked, choice_correct, choice_accuracy)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                [
                    (
                        run.run_id,
                        row["predicate"],
                        row["plans"],
                        row["executed"],
                        row["q_p50"],
                        row["q_p90"],
                        row["q_max"],
                        row["misestimates"],
                        row["shadow_checked"],
                        row["choice_correct"],
                        row["choice_accuracy"],
                    )
                    for row in run.plan_quality
                ],
            )
        return run

    def rebuild(self, runs_dir: str | Path) -> list[IndexedRun]:
        """Drop everything and re-index every subdirectory of ``runs_dir``.

        Non-directories (e.g. ``registry.db`` itself) are skipped; a
        missing ``runs_dir`` just yields an empty index.
        """
        with self._conn:
            for table in ("runs", "scenarios", "metrics", "plan_quality"):
                self._conn.execute(f"DELETE FROM {table}")
        runs_dir = Path(runs_dir)
        if not runs_dir.is_dir():
            return []
        return [
            self.index_run(entry)
            for entry in sorted(runs_dir.iterdir())
            if entry.is_dir()
        ]

    # -- queries -------------------------------------------------------
    def runs(self, limit: int | None = None) -> list[dict[str, Any]]:
        """All indexed runs, oldest first (created time, then id)."""
        rows = self._conn.execute(
            "SELECT run_id, git_sha, seed, mode, status, created_unix,"
            " python_version, platform, span_count, path, artifacts,"
            " args_json, problems FROM runs"
            " ORDER BY created_unix IS NULL, created_unix, run_id"
        ).fetchall()
        result = [
            {
                "run_id": r[0],
                "git_sha": r[1],
                "seed": r[2],
                "mode": r[3],
                "status": r[4],
                "created_unix": r[5],
                "python_version": r[6],
                "platform": r[7],
                "span_count": r[8],
                "path": r[9],
                "artifacts": json.loads(r[10]),
                "args": json.loads(r[11]),
                "problems": json.loads(r[12]),
            }
            for r in rows
        ]
        if limit is not None:
            result = result[-limit:]
        return result

    def run(self, run_id: str) -> dict[str, Any] | None:
        """One run row by id, or None."""
        for entry in self.runs():
            if entry["run_id"] == run_id:
                return entry
        return None

    def scenarios_for(self, run_id: str) -> list[dict[str, Any]]:
        """Scenario rows of one run, by scenario name."""
        rows = self._conn.execute(
            "SELECT scenario, status, best_ns, mean_ns, repeats, results_json"
            " FROM scenarios WHERE run_id = ? ORDER BY scenario",
            (run_id,),
        ).fetchall()
        return [
            {
                "scenario": r[0],
                "status": r[1],
                "best_ns": r[2],
                "mean_ns": r[3],
                "repeats": r[4],
                "results": json.loads(r[5]),
            }
            for r in rows
        ]

    def scenario_names(self) -> list[str]:
        """Every scenario name seen across all indexed runs."""
        rows = self._conn.execute(
            "SELECT DISTINCT scenario FROM scenarios ORDER BY scenario"
        ).fetchall()
        return [r[0] for r in rows]

    def metrics_for(self, run_id: str) -> list[dict[str, Any]]:
        """Flattened metric rows of one run."""
        rows = self._conn.execute(
            "SELECT kind, name, value FROM metrics WHERE run_id = ?"
            " ORDER BY kind, name",
            (run_id,),
        ).fetchall()
        return [{"kind": r[0], "name": r[1], "value": r[2]} for r in rows]

    def plan_quality_for(self, run_id: str) -> list[dict[str, Any]]:
        """Per-predicate-class calibration rows of one run."""
        rows = self._conn.execute(
            "SELECT predicate, plans, executed, q_p50, q_p90, q_max,"
            " misestimates, shadow_checked, choice_correct, choice_accuracy"
            " FROM plan_quality WHERE run_id = ? ORDER BY predicate",
            (run_id,),
        ).fetchall()
        return [
            {
                "predicate": r[0],
                "plans": r[1],
                "executed": r[2],
                "q_p50": r[3],
                "q_p90": r[4],
                "q_max": r[5],
                "misestimates": r[6],
                "shadow_checked": r[7],
                "choice_correct": r[8],
                "choice_accuracy": r[9],
            }
            for r in rows
        ]

    def plan_predicates(self) -> list[str]:
        """Every predicate class with calibration data across all runs."""
        rows = self._conn.execute(
            "SELECT DISTINCT predicate FROM plan_quality ORDER BY predicate"
        ).fetchall()
        return [r[0] for r in rows]

    def series(
        self, scenario: str, metric: str = "best_ns", limit: int | None = None
    ) -> list[dict[str, Any]]:
        """The timing series of one scenario across runs, oldest first.

        Each point carries run provenance plus ``value_ns`` (None for
        failed/partial points — they stay in the series so gaps are
        visible rather than silently compacted).
        """
        if metric not in ("best_ns", "mean_ns"):
            raise ValueError(f"metric must be best_ns or mean_ns, got {metric!r}")
        return self._series(
            self.scenarios_for,
            "scenario",
            scenario,
            limit,
            lambda entry: {
                "status": entry["status"],
                "value_ns": entry[metric] if entry["status"] == STATUS_OK else None,
            },
        )

    def _series(self, rows_for, key: str, name: str, limit: int | None, extra):
        """One point per run row (``rows_for(run_id)``) whose ``key`` is
        ``name``: run provenance plus ``extra(row)``, oldest first, only
        the newest ``limit``."""
        points = [
            {
                **{f: run[f] for f in ("run_id", "git_sha", "created_unix", "mode")},
                **extra(row),
            }
            for run in self.runs()
            for row in rows_for(run["run_id"])
            if row[key] == name
        ]
        return points if limit is None else points[-limit:]

    # -- analytics -----------------------------------------------------
    def trend(
        self,
        scenario: str,
        metric: str = "best_ns",
        tolerance: float = DEFAULT_TOLERANCE,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """The scenario series with per-point regression verdicts.

        Each point is compared against the **previous ok point of a
        comparable mode** with the perf gate's rule
        (:func:`repro.obs.verdict.verdict`): REGRESSION, faster or ok; a
        failed point is FAILED.  The first comparable point is the
        baseline.
        """
        points = self.series(scenario, metric=metric, limit=limit)
        return _flag_series(
            points, "value_ns", tolerance, improved="faster", no_value="no-timing"
        )

    def plan_series(
        self,
        predicate: str,
        metric: str = "q_p90",
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """The calibration series of one predicate class across runs,
        oldest first; ``value`` is None where a run has no data."""
        if metric not in PLAN_METRICS:
            raise ValueError(
                f"metric must be one of {PLAN_METRICS}, got {metric!r}"
            )
        return self._series(
            self.plan_quality_for,
            "predicate",
            predicate,
            limit,
            lambda row: {"plans": row["plans"], "value": row[metric]},
        )

    def plan_trend(
        self,
        predicate: str,
        metric: str = "q_p90",
        tolerance: float = DEFAULT_TOLERANCE,
        limit: int | None = None,
    ) -> list[dict[str, Any]]:
        """The plan-quality series with per-point regression verdicts.

        Same rule and tolerance as the perf gate, with ``better`` for an
        improvement; the bad direction flips for ``choice_accuracy``
        (shrinks when the planner miscalibrates) versus the q-error
        metrics (grow).
        """
        points = self.plan_series(predicate, metric=metric, limit=limit)
        return _flag_series(
            points, "value", tolerance, higher_is_worse=metric != "choice_accuracy"
        )

    def compare(
        self,
        run_a: str,
        run_b: str,
        metric: str = "best_ns",
        tolerance: float = DEFAULT_TOLERANCE,
    ) -> list[dict[str, Any]]:
        """Scenario-by-scenario comparison of two indexed runs
        (:func:`repro.obs.verdict.compare_scenarios`, the perf gate's
        comparator); raises :class:`~repro.obs.verdict.ModeMismatch` for
        a smoke run against a full one."""
        modes = tuple((self.run(r) or {}).get("mode") for r in (run_a, run_b))
        return compare_scenarios(
            self.scenarios_for(run_a),
            self.scenarios_for(run_b),
            tolerance=tolerance,
            metric=metric,
            modes=modes,
        )

    def dump(self) -> dict[str, Any]:
        """A deterministic full-content view (the round-trip test's
        equality witness): every table, sorted."""
        return {
            "schema": REGISTRY_SCHEMA,
            "runs": self.runs(),
            "scenarios": {
                run["run_id"]: self.scenarios_for(run["run_id"])
                for run in self.runs()
            },
            "metrics": {
                run["run_id"]: self.metrics_for(run["run_id"])
                for run in self.runs()
            },
            "plan_quality": {
                run["run_id"]: self.plan_quality_for(run["run_id"])
                for run in self.runs()
            },
        }


def open_registry(
    runs_dir: str | Path,
    db_path: str | Path | None = None,
    refresh: bool = True,
) -> RunRegistry:
    """Open (and by default rebuild) the registry for ``runs_dir``.

    The database defaults to ``<runs_dir>/registry.db``; when that
    location is unwritable (read-only checkout, missing directory) the
    registry silently degrades to an in-memory store — queries work
    either way because the artifacts are the source of truth.
    """
    runs_dir = Path(runs_dir)
    target = Path(db_path) if db_path is not None else runs_dir / DB_FILENAME
    try:
        registry = RunRegistry(target)
    except sqlite3.Error:
        registry = RunRegistry(":memory:")
    if refresh:
        registry.rebuild(runs_dir)
    return registry
