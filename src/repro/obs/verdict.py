"""The one regression rule: every comparison of a new number against a
baseline in this repo — the perf gate and plan gate (``repro check
--baseline``), ``repro runs compare|trend|plan-quality`` and the HTML
report — goes through :func:`verdict`, with one tolerance.

A ratio ``new / base`` past ``1 + tolerance`` in the bad direction is a
``REGRESSION``; past ``1 - tolerance`` in the good direction it is an
improvement, labelled ``faster`` for timings and ``better`` for
calibration metrics; anything in between is ``ok``.  Runs of different
modes (smoke vs full) have different input sizes, so comparing them is
refused (:class:`ModeMismatch`); a run whose mode is unknown stays
comparable with anything.
"""

from __future__ import annotations

from typing import Any, Sequence

DEFAULT_TOLERANCE = 0.25

# Verdicts that fail a gate: worse past tolerance, ok in the baseline but
# failed now, or present in the baseline but gone now.
BAD_VERDICTS = ("REGRESSION", "FAILED", "MISSING")

# The calibration scalars the plan gate compares, and whether a higher
# value is worse (q-error grows with miscalibration, accuracy shrinks).
GATED_CALIBRATION = (("q_p90", True), ("choice_accuracy", False))


class ModeMismatch(ValueError):
    """Two runs of different known modes were asked to be compared."""


def comparable(mode_a: str | None, mode_b: str | None) -> bool:
    """Whether runs of these modes may be compared (unknown matches all)."""
    return mode_a is None or mode_b is None or mode_a == mode_b


def verdict(
    base: float,
    new: float,
    tolerance: float = DEFAULT_TOLERANCE,
    higher_is_worse: bool = True,
    improved: str = "better",
) -> tuple[float, str]:
    """``(ratio, label)`` for one metric with a positive ``base``."""
    ratio = new / base
    worse = ratio > 1.0 + tolerance
    better = ratio < 1.0 - tolerance
    if not higher_is_worse:
        worse, better = better, worse
    return ratio, "REGRESSION" if worse else improved if better else "ok"


def compare_scenarios(
    base: Sequence[dict[str, Any]],
    new: Sequence[dict[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
    metric: str = "best_ns",
    modes: tuple[str | None, str | None] = (None, None),
) -> list[dict[str, Any]]:
    """Scenario-by-scenario timing comparison, ordered by scenario name.

    ``base`` and ``new`` are scenario rows as the run registry stores
    them (``scenario``, ``status`` and the ``metric`` timing).  Each
    result row carries ``scenario``, ``a_ns``, ``b_ns``, ``ratio`` and a
    ``verdict``: ``new`` (only in ``new``), ``MISSING`` (coverage loss),
    ``baseline-failed`` (nothing sound to compare), ``FAILED`` (ok ->
    failed), ``no-timing``, or the :func:`verdict` label.  Raises
    :class:`ModeMismatch` when ``modes`` are known and differ.
    """
    if not comparable(*modes):
        raise ModeMismatch(
            f"mode mismatch: baseline is {modes[0]!r}, candidate is "
            f"{modes[1]!r} — compare like against like"
        )
    a_map = {s["scenario"]: s for s in base}
    b_map = {s["scenario"]: s for s in new}
    rows = []
    for name in sorted(a_map.keys() | b_map.keys()):
        old, fresh = a_map.get(name), b_map.get(name)
        row: dict[str, Any] = {
            "scenario": name,
            "a_ns": None if old is None else old[metric],
            "b_ns": None if fresh is None else fresh[metric],
            "ratio": None,
        }
        if old is None:
            row["verdict"] = "new"
        elif fresh is None:
            row["verdict"] = "MISSING"
        elif old["status"] != "ok":
            row["verdict"] = "baseline-failed"
        elif fresh["status"] != "ok":
            row["verdict"] = "FAILED"
        elif row["a_ns"] is None or row["a_ns"] <= 0 or row["b_ns"] is None:
            row["verdict"] = "no-timing"
        else:
            row["ratio"], row["verdict"] = verdict(
                row["a_ns"], row["b_ns"], tolerance, improved="faster"
            )
        rows.append(row)
    return rows


def compare_calibration(
    base: dict[str, dict[str, Any]],
    new: Sequence[dict[str, Any]],
    tolerance: float = DEFAULT_TOLERANCE,
) -> list[dict[str, Any]]:
    """The plan gate's rows, one per (predicate, gated metric).

    ``base`` maps predicate class -> baseline scalars (a plan baseline's
    ``predicates``); ``new`` is :func:`repro.obs.planquality.calibration`
    output.  Each row carries ``predicate``, ``metric``, ``base``,
    ``new``, ``ratio`` and a ``verdict``: ``ok`` when neither side has
    data, ``MISSING`` when only the baseline has, ``new`` when only the
    candidate has, else the :func:`verdict` label.
    """
    new_map = {row["predicate"]: row for row in new}
    rows = []
    for predicate in sorted(base.keys() | new_map.keys()):
        for metric, higher_is_worse in GATED_CALIBRATION:
            row: dict[str, Any] = {
                "predicate": predicate,
                "metric": metric,
                "base": (base.get(predicate) or {}).get(metric),
                "new": (new_map.get(predicate) or {}).get(metric),
                "ratio": None,
            }
            if row["base"] is None and row["new"] is None:
                row["verdict"] = "ok"
            elif row["new"] is None:
                row["verdict"] = "MISSING"
            elif row["base"] is None or row["base"] <= 0:
                row["verdict"] = "new"
            else:
                row["ratio"], row["verdict"] = verdict(
                    row["base"], row["new"], tolerance, higher_is_worse
                )
            rows.append(row)
    return rows
