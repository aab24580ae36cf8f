"""Plan-quality observability: structured EXPLAIN records and calibration.

The planner (:mod:`repro.engine.planner`) chooses join algorithms from
sampled selectivity estimates, but an estimate can be silently wrong —
and a miscalibrated estimator flips algorithm choices without a trace.
This module makes plan quality a first-class observable:

- :class:`PlanRecord` — one planned (and optionally executed) query:
  predicate class, chosen algorithm, every **candidate** the planner
  considered with its cost-model estimate and rejection reason, the
  estimated vs actual output size, and the derived **q-error**;
- :func:`q_error` — the canonical estimation-error metric of Leis et
  al., *How Good Are Query Optimizers, Really?*:
  ``max(est / act, act / est)`` with both sides clamped to ``>= 1`` (a
  perfectly calibrated estimate scores 1.0, symmetric in over- and
  under-estimation);
- **plan-regret accounting** — on small inputs the executor can shadow-
  execute the runner-up candidates and score each by its pebbling
  effective cost (the paper's cost model, deterministic unlike wall
  time); a plan is *choice-correct* when the chosen candidate is the
  a-posteriori cheapest;
- :class:`PlanLog` — the process-global, off-by-default record log
  (mirrors :mod:`repro.obs.events`), serialized as ``plans.jsonl`` in
  each run directory;
- :func:`calibration` — per-predicate-class aggregation (q-error
  p50/p90/max, misestimate count, choice accuracy) feeding the run
  registry, ``repro runs plan-quality``, and the HTML report;
- :func:`validate_records` / :func:`validate_jsonl` /
  :func:`validate_explain_document` — the structural schema shared by
  the test-suite and ``tools/check_plan_quality.py``.

Like every collector in :mod:`repro.obs`, the log is **off by default**
and recording is behaviour-neutral: plans and results are identical with
the log enabled or disabled.

>>> from repro.obs import planquality
>>> planquality.q_error(100.0, 25.0)
4.0
>>> planquality.q_error(25.0, 100.0)
4.0
>>> planquality.q_error(0.0, 0.0)  # both clamped to 1
1.0
"""

from __future__ import annotations

import json
import math
import threading
from dataclasses import dataclass, field
from typing import Any

from repro.obs import recorder as obs_recorder

PLAN_SCHEMA = "repro-plan/v1"

# q-error above which the executor emits a ``planner.misestimate`` event
# (estimate off by more than 4x in either direction).
MISESTIMATE_THRESHOLD = 4.0

# Largest query.input_size the executor will shadow-execute runner-up
# candidates on: regret accounting is a diagnostic, not a tax.
SHADOW_INPUT_LIMIT = 600


def q_error(estimated: float, actual: float) -> float:
    """``max(est/act, act/est)`` with both sides clamped to ``>= 1``.

    The clamp makes the metric total (no division by zero on empty
    outputs) and keeps "estimated 0, got 0" a perfect score.
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


@dataclass
class CandidateRecord:
    """One algorithm the planner considered for a query.

    ``estimated_cost`` is in cost-model units (expected tuple touches,
    not wall time); ``shadow_cost`` is the pebbling effective cost
    measured by shadow execution, ``None`` until measured.
    """

    algorithm: str
    estimated_cost: float
    reason: str
    chosen: bool = False
    shadow_cost: int | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "estimated_cost": self.estimated_cost,
            "reason": self.reason,
            "chosen": self.chosen,
            "shadow_cost": self.shadow_cost,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CandidateRecord":
        return cls(
            algorithm=data["algorithm"],
            estimated_cost=data["estimated_cost"],
            reason=data["reason"],
            chosen=bool(data.get("chosen", False)),
            shadow_cost=data.get("shadow_cost"),
        )


@dataclass
class PlanRecord:
    """The structured record behind one EXPLAIN line.

    Created at plan time (estimates and candidates), completed at
    execution time (``actual_output``; shadow-execution fields when
    regret accounting ran).  ``estimated_output`` is ``-1.0`` when the
    planner skipped estimation under deadline pressure.
    """

    query: str
    predicate: str
    left: str
    right: str
    left_size: int
    right_size: int
    algorithm: str
    reason: str
    estimated_output: float
    candidates: list[CandidateRecord] = field(default_factory=list)
    deadline_pressure: bool = False
    actual_output: int | None = None
    shadow_checked: bool = False
    best_algorithm: str | None = None
    regret: int | None = None

    # -- derived -------------------------------------------------------
    @property
    def executed(self) -> bool:
        return self.actual_output is not None

    @property
    def q_error(self) -> float | None:
        """q-error of the output-size estimate; ``None`` until executed
        (or when estimation was skipped under deadline pressure)."""
        if self.actual_output is None or self.estimated_output < 0:
            return None
        return q_error(self.estimated_output, self.actual_output)

    def misestimate(self, threshold: float = MISESTIMATE_THRESHOLD) -> bool:
        qe = self.q_error
        return qe is not None and qe > threshold

    @property
    def choice_correct(self) -> bool | None:
        """Whether the chosen candidate was the a-posteriori cheapest;
        ``None`` when shadow execution did not run."""
        if not self.shadow_checked:
            return None
        return self.regret == 0

    # -- rendering -----------------------------------------------------
    def explain_line(self) -> str:
        """The classic one-line EXPLAIN string (the :meth:`Plan.explain`
        golden format, rendered from the structured record)."""
        return (
            f"{self.query} -> {self.algorithm} "
            f"(est. m = {self.estimated_output:.0f}; {self.reason})"
        )

    def render(self) -> str:
        """A multi-line plan tree: the EXPLAIN line, every candidate with
        its cost estimate, and (when known) actuals and regret."""
        lines = [self.explain_line()]
        for candidate in self.candidates:
            mark = "*" if candidate.chosen else " "
            shadow = (
                ""
                if candidate.shadow_cost is None
                else f", shadow pi = {candidate.shadow_cost}"
            )
            lines.append(
                f"  {mark} {candidate.algorithm:<14} "
                f"est. cost {candidate.estimated_cost:.0f}{shadow}  "
                f"-- {candidate.reason}"
            )
        if self.actual_output is not None:
            qe = self.q_error
            q_part = "q-error n/a" if qe is None else f"q-error {qe:.2f}"
            lines.append(f"  actual m = {self.actual_output} ({q_part})")
        if self.shadow_checked:
            verdict = (
                "optimal"
                if self.regret == 0
                else f"regret {self.regret} vs chosen {self.algorithm}"
            )
            lines.append(f"  a-posteriori best: {self.best_algorithm} ({verdict})")
        return "\n".join(lines)

    # -- serialization -------------------------------------------------
    def as_dict(self) -> dict[str, Any]:
        qe = self.q_error
        return {
            "schema": PLAN_SCHEMA,
            "query": self.query,
            "predicate": self.predicate,
            "left": self.left,
            "right": self.right,
            "left_size": self.left_size,
            "right_size": self.right_size,
            "algorithm": self.algorithm,
            "reason": self.reason,
            "estimated_output": self.estimated_output,
            "candidates": [c.as_dict() for c in self.candidates],
            "deadline_pressure": self.deadline_pressure,
            "actual_output": self.actual_output,
            "q_error": None if qe is None else round(qe, 6),
            "shadow_checked": self.shadow_checked,
            "best_algorithm": self.best_algorithm,
            "regret": self.regret,
            "choice_correct": self.choice_correct,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PlanRecord":
        return cls(
            query=data["query"],
            predicate=data["predicate"],
            left=data.get("left", ""),
            right=data.get("right", ""),
            left_size=data["left_size"],
            right_size=data["right_size"],
            algorithm=data["algorithm"],
            reason=data["reason"],
            estimated_output=data["estimated_output"],
            candidates=[
                CandidateRecord.from_dict(c) for c in data.get("candidates", [])
            ],
            deadline_pressure=bool(data.get("deadline_pressure", False)),
            actual_output=data.get("actual_output"),
            shadow_checked=bool(data.get("shadow_checked", False)),
            best_algorithm=data.get("best_algorithm"),
            regret=data.get("regret"),
        )


class PlanLog:
    """A process-global, append-only log of :class:`PlanRecord` objects.

    Mirrors :class:`repro.obs.events.EventLog`: off by default, one
    attribute check per plan while recording is off, serialized as
    ``plans.jsonl`` (one sorted-key JSON object per line) in each run
    directory.
    """

    def __init__(self) -> None:
        self._records: list[PlanRecord] = []
        self._lock = threading.Lock()

    # -- control -------------------------------------------------------
    def reset(self) -> None:
        """Drop all records (the switch is unchanged)."""
        self._records = []

    # -- recording -----------------------------------------------------
    def record(self, record: PlanRecord) -> None:
        """Append one record; a single attribute check while recording is off.

        Records are appended at *plan* time and completed in place by the
        executor (actuals, shadow costs), so a record serialized after
        execution carries the full estimate-vs-actual story.
        """
        if not obs_recorder.ON:
            return
        with self._lock:
            self._records.append(record)

    # -- inspection ----------------------------------------------------
    def records(self) -> list[PlanRecord]:
        return list(self._records)

    def as_dicts(self) -> list[dict[str, Any]]:
        return [r.as_dict() for r in self._records]

    def to_jsonl(self) -> str:
        return "".join(
            json.dumps(r.as_dict(), sort_keys=True) + "\n" for r in self._records
        )


PLANS = PlanLog()


def record(plan_record: PlanRecord) -> None:
    """Record one plan on the global log (near-free no-op when disabled)."""
    PLANS.record(plan_record)


def records() -> list[PlanRecord]:
    """All records on the global log, in plan order."""
    return PLANS.records()


def to_jsonl() -> str:
    """The global log as JSONL (one object per line)."""
    return PLANS.to_jsonl()


# ---------------------------------------------------------------------------
# Calibration aggregation (registry tables, `repro runs plan-quality`,
# the HTML report's calibration section, and the plan-quality gate).
# ---------------------------------------------------------------------------


def percentile(values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (``fraction`` in [0, 1])."""
    if not values:
        raise ValueError("percentile of empty list")
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def calibration(
    plan_records: list[PlanRecord | dict[str, Any]],
) -> list[dict[str, Any]]:
    """Per-predicate-class calibration rows, sorted by predicate name.

    Each row:  ``predicate``, ``plans`` (records), ``executed`` (with
    actuals), ``q_p50``/``q_p90``/``q_max`` (``None`` when nothing
    executed), ``misestimates`` (q-error above the threshold),
    ``shadow_checked`` (regret-accounted plans), ``choice_correct``, and
    ``choice_accuracy`` (``None`` when nothing was shadow-checked).
    """
    normalized = [
        r if isinstance(r, PlanRecord) else PlanRecord.from_dict(r)
        for r in plan_records
    ]
    by_predicate: dict[str, list[PlanRecord]] = {}
    for rec in normalized:
        by_predicate.setdefault(rec.predicate, []).append(rec)
    rows: list[dict[str, Any]] = []
    for predicate in sorted(by_predicate):
        group = by_predicate[predicate]
        q_errors = [r.q_error for r in group if r.q_error is not None]
        shadowed = [r for r in group if r.choice_correct is not None]
        correct = sum(1 for r in shadowed if r.choice_correct)
        rows.append(
            {
                "predicate": predicate,
                "plans": len(group),
                "executed": sum(1 for r in group if r.executed),
                "q_p50": round(percentile(q_errors, 0.50), 6) if q_errors else None,
                "q_p90": round(percentile(q_errors, 0.90), 6) if q_errors else None,
                "q_max": round(max(q_errors), 6) if q_errors else None,
                "misestimates": sum(1 for r in group if r.misestimate()),
                "shadow_checked": len(shadowed),
                "choice_correct": correct,
                "choice_accuracy": (
                    round(correct / len(shadowed), 6) if shadowed else None
                ),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Validation (shared by the test-suite and tools/check_plan_quality.py).
# ---------------------------------------------------------------------------

_REQUIRED_FIELDS = (
    "query",
    "predicate",
    "left_size",
    "right_size",
    "algorithm",
    "reason",
    "estimated_output",
    "candidates",
)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def validate_records(
    plan_records: list[Any], context: str = "plans"
) -> list[str]:
    """All structural problems in parsed plan records (empty = valid).

    Checks field presence and types, that exactly one candidate is
    marked chosen and that it names the record's algorithm, that q-error
    (when present) is ``>= 1``, and that shadow-derived fields are
    internally consistent.
    """
    problems: list[str] = []
    for position, rec in enumerate(plan_records):
        where = f"{context}[{position}]"
        if not isinstance(rec, dict):
            problems.append(f"{where}: must be an object")
            continue
        for missing in [f for f in _REQUIRED_FIELDS if f not in rec]:
            problems.append(f"{where}: missing field {missing!r}")
        schema = rec.get("schema")
        if schema is not None and schema != PLAN_SCHEMA:
            problems.append(
                f"{where}: schema {schema!r} is not {PLAN_SCHEMA!r}"
            )
        for str_field in ("query", "predicate", "algorithm", "reason"):
            value = rec.get(str_field)
            if str_field in rec and (not isinstance(value, str) or not value):
                problems.append(
                    f"{where}: {str_field!r} must be a non-empty string"
                )
        for size_field in ("left_size", "right_size"):
            if size_field in rec and not _is_count(rec.get(size_field)):
                problems.append(
                    f"{where}: {size_field!r} must be a non-negative integer"
                )
        if "estimated_output" in rec and not _is_number(
            rec.get("estimated_output")
        ):
            problems.append(f"{where}: 'estimated_output' must be a number")
        actual = rec.get("actual_output")
        if actual is not None and not _is_count(actual):
            problems.append(
                f"{where}: 'actual_output' must be a non-negative integer or null"
            )
        qe = rec.get("q_error")
        if qe is not None and (not _is_number(qe) or qe < 1.0):
            problems.append(f"{where}: 'q_error' must be a number >= 1 or null")
        candidates = rec.get("candidates")
        if "candidates" in rec:
            if not isinstance(candidates, list) or not candidates:
                problems.append(
                    f"{where}: 'candidates' must be a non-empty array"
                )
            else:
                chosen_names: list[str] = []
                for c_pos, candidate in enumerate(candidates):
                    c_where = f"{where}.candidates[{c_pos}]"
                    if not isinstance(candidate, dict):
                        problems.append(f"{c_where}: must be an object")
                        continue
                    if not isinstance(candidate.get("algorithm"), str):
                        problems.append(
                            f"{c_where}: 'algorithm' must be a string"
                        )
                    if not _is_number(candidate.get("estimated_cost")):
                        problems.append(
                            f"{c_where}: 'estimated_cost' must be a number"
                        )
                    if not isinstance(candidate.get("reason"), str):
                        problems.append(f"{c_where}: 'reason' must be a string")
                    shadow = candidate.get("shadow_cost")
                    if shadow is not None and not _is_count(shadow):
                        problems.append(
                            f"{c_where}: 'shadow_cost' must be a "
                            "non-negative integer or null"
                        )
                    if candidate.get("chosen"):
                        chosen_names.append(candidate.get("algorithm"))
                if len(chosen_names) != 1:
                    problems.append(
                        f"{where}: exactly one candidate must be chosen "
                        f"(found {len(chosen_names)})"
                    )
                elif (
                    isinstance(rec.get("algorithm"), str)
                    and chosen_names[0] != rec["algorithm"]
                ):
                    problems.append(
                        f"{where}: chosen candidate {chosen_names[0]!r} does "
                        f"not match record algorithm {rec['algorithm']!r}"
                    )
        if rec.get("shadow_checked"):
            if not isinstance(rec.get("best_algorithm"), str):
                problems.append(
                    f"{where}: shadow-checked record needs 'best_algorithm'"
                )
            if not _is_count(rec.get("regret")):
                problems.append(
                    f"{where}: shadow-checked record needs a "
                    "non-negative integer 'regret'"
                )
    return problems


def validate_jsonl(text: str, context: str = "plans") -> list[str]:
    """Parse ``plans.jsonl`` text and validate it; parse errors become
    problems."""
    parsed: list[Any] = []
    problems: list[str] = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            parsed.append(json.loads(line))
        except json.JSONDecodeError as exc:
            problems.append(f"{context}:{number}: unparseable JSON ({exc})")
    return problems + validate_records(parsed, context=context)


def validate_explain_document(
    document: Any, context: str = "explain"
) -> list[str]:
    """Validate a ``repro explain --json`` document:
    ``{"schema": "repro-plan/v1", "records": [...]}``."""
    problems: list[str] = []
    if not isinstance(document, dict):
        return [f"{context}: must be an object"]
    if document.get("schema") != PLAN_SCHEMA:
        problems.append(
            f"{context}: 'schema' must be {PLAN_SCHEMA!r} "
            f"(got {document.get('schema')!r})"
        )
    records_field = document.get("records")
    if not isinstance(records_field, list):
        problems.append(f"{context}: 'records' must be an array")
        return problems
    return problems + validate_records(
        records_field, context=f"{context}.records"
    )
